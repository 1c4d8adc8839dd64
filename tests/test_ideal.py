"""Tensor ideals, quantum traces, negligibility, quasi-domination."""

import math
import random

import pytest

from greenring.errors import NegativeCoefficient, NotEndomorphism
from greenring.green import STANDARD_ETAS, GreenElement, green_mul_labels
from greenring.ideal import (IdealSpec, ideal_closure, ideal_contains,
                             is_negligible, is_quasi_dominated, qdim,
                             quantum_trace)
from greenring.indec import EtaPoint, IndecLabel, identify, realize
from greenring.ratlin import Rat, RatMatrix, ZERO
from greenring.rep import (ModuleRep, check_module, direct_sum, hom_basis,
                           tensor, zero_module)
from greenring.verify import _k2_labels

ETA0 = EtaPoint.finite(0, 1)
ETA1 = EtaPoint.finite(1, 1)


def test_spec_membership():
    spec = IdealSpec(True, {ETA0: 3, ETA1: math.inf}, default=1)
    assert spec.member_label(IndecLabel.proj(1))
    assert spec.member_label(IndecLabel.mtype(2, 0, ETA0))
    assert not spec.member_label(IndecLabel.mtype(3, 0, ETA0))
    assert spec.member_label(IndecLabel.mtype(5, 1, ETA1))
    assert not spec.member_label(IndecLabel.mtype(1, 0, EtaPoint.infinity()))
    assert not spec.member_label(IndecLabel.simple(0))
    assert not spec.member_label(IndecLabel.syz_pos(1, 1))


def test_spec_json_roundtrip():
    for spec in (IdealSpec.improper(), IdealSpec.projective(),
                 IdealSpec(True, {ETA0: math.inf}, default=2)):
        assert IdealSpec.from_json_dict(spec.to_json_dict()) == spec


def test_spec_rejects_bad_bounds():
    with pytest.raises(ValueError):
        IdealSpec(True, {ETA0: 0})
    with pytest.raises(ValueError):
        IdealSpec(True, default=-1)


def test_closure_rules():
    assert not ideal_closure([IndecLabel.simple(0)]).proper
    assert not ideal_closure([IndecLabel.syz_neg(2, 1)]).proper
    assert ideal_closure([IndecLabel.proj(0)]) == IdealSpec.projective()
    spec = ideal_closure([IndecLabel.mtype(2, 0, ETA0),
                          IndecLabel.mtype(1, 1, ETA0)])
    assert spec.bound(ETA0) == 3 and spec.bound(ETA1) == 1


def test_ideal_contains_green_elements():
    spec = ideal_closure([IndecLabel.mtype(1, 0, ETA0)])
    x = (GreenElement.from_label(IndecLabel.mtype(1, 1, ETA0))
         + GreenElement.from_label(IndecLabel.proj(0)).scale(3))
    assert ideal_contains(spec, x)
    y = x + GreenElement.from_label(IndecLabel.mtype(2, 0, ETA0))
    assert not ideal_contains(spec, y)
    with pytest.raises(NegativeCoefficient):
        ideal_contains(spec, x - GreenElement.from_label(
            IndecLabel.proj(0)).scale(5))


def test_closure_is_tensor_stable_spot_check():
    spec = ideal_closure([IndecLabel.mtype(2, 0, ETA1)])
    member = IndecLabel.mtype(1, 1, ETA1)
    for other in (IndecLabel.syz_pos(2, 0), IndecLabel.proj(1),
                  IndecLabel.mtype(2, 0, ETA0)):
        prod = green_mul_labels(member, other)
        assert ideal_contains(spec, prod)


def test_quantum_trace_of_identity_is_qdim():
    for text in ("V(0)", "V(1)", "P(0)", "O(+1,0)", "M(2,0,1)"):
        m = realize(IndecLabel.parse(text), "K2")
        assert quantum_trace(m, RatMatrix.identity(m.dim)) == qdim(m)


def test_quantum_trace_rejects_non_endomorphisms():
    m = realize(IndecLabel.simple(0), "K2")
    p = realize(IndecLabel.proj(0), "K2")
    with pytest.raises(NotEndomorphism):
        quantum_trace(p, RatMatrix.zeros(2, 4))
    with pytest.raises(NotEndomorphism):
        # right shape but not an intertwiner
        quantum_trace(p, RatMatrix(4, 4, {(0, 1): qdim(m)}))


def test_qdim_values():
    assert qdim(realize(IndecLabel.simple(0), "K2")) == 1
    assert qdim(realize(IndecLabel.simple(1), "K2")) == -1
    assert qdim(realize(IndecLabel.proj(0), "K2")) == ZERO
    assert qdim(realize(IndecLabel.syz_pos(2, 0), "K2")) == 1
    assert qdim(realize(IndecLabel.syz_neg(1, 1), "K2")) == 1
    assert qdim(realize(IndecLabel.mtype(3, 0, ETA1), "K2")) == ZERO
    assert qdim(realize(IndecLabel.steinberg(0), "DK1")) == ZERO


def test_negligible_classification():
    negligible = ("P(0)", "P(1)", "M(1,0,0)", "M(2,1,inf)")
    not_negligible = ("V(0)", "V(1)", "O(+1,0)", "O(-2,1)")
    for text in negligible:
        assert is_negligible(realize(IndecLabel.parse(text), "K2")), text
    for text in not_negligible:
        assert not is_negligible(realize(IndecLabel.parse(text), "K2")), text
    assert is_negligible(realize(IndecLabel.steinberg(1), "DK1"))


def test_negligible_means_all_traces_vanish():
    m = realize(IndecLabel.mtype(2, 0, ETA0), "K2")
    for t in hom_basis(m, m):
        assert quantum_trace(m, t) == ZERO


# -- is_negligible (row-space membership) against the trace definition


def negligible_by_traces(m):
    """The definition: the quantum trace vanishes on a basis of End(M)."""
    return all(quantum_trace(m, t) == ZERO for t in hom_basis(m, m))


GUARD_ETAS = (ETA0, ETA1, EtaPoint.infinity())
GUARD_LABELS = ([IndecLabel.simple(r) for r in (0, 1)]
                + [IndecLabel.proj(r) for r in (0, 1)]
                + [IndecLabel.syz_pos(s, r) for s in (1, 2) for r in (0, 1)]
                + [IndecLabel.syz_neg(s, r) for s in (1, 2) for r in (0, 1)]
                + [IndecLabel.mtype(n, r, e) for n in (1, 2) for r in (0, 1)
                   for e in GUARD_ETAS])


def conjugated(m, steps):
    """M with actions g A g^-1, g the product of the elementary matrices
    I + c E_ij for (i, j, c) in steps: unimodular, with an exact inverse."""
    n = m.dim
    ident = RatMatrix.identity(n)
    g, g_inv = ident, ident
    for i, j, c in steps:
        g = g * RatMatrix(n, n, {**ident.data, (i, j): Rat(c)})
        g_inv = RatMatrix(n, n, {**ident.data, (i, j): Rat(-c)}) * g_inv
    assert g * g_inv == ident
    return ModuleRep(m.algebra, n, {lbl: g * a * g_inv
                                    for lbl, a in m.actions.items()})


def test_negligible_matches_traces_on_seeded_k2_products():
    rng = random.Random(7)
    seen = set()
    for _ in range(16):
        a, b = rng.choice(GUARD_LABELS), rng.choice(GUARD_LABELS)
        m = tensor(realize(a, "K2"), realize(b, "K2"))
        want = negligible_by_traces(m)
        assert is_negligible(m) == want, (str(a), str(b))
        seen.add(want)
    assert seen == {True, False}  # both outcomes are exercised


def test_negligible_matches_traces_with_non_diagonal_k():
    rng = random.Random(3)
    for text in ("O(+1,0)", "M(1,0,0)", "V(1)"):
        m = tensor(realize(IndecLabel.parse(text), "K2"),
                   realize(IndecLabel.parse("O(-1,1)"), "K2"))
        steps = [(*rng.sample(range(m.dim), 2), rng.choice((-1, 1)))
                 for _ in range(m.dim)]
        c = conjugated(m, steps)
        assert check_module(c).ok
        k = c.actions["K"]
        assert any(i != j for i, j in k.data), "K is still diagonal"
        assert is_negligible(c) == negligible_by_traces(c) \
            == is_negligible(m), text


def test_negligible_matches_traces_over_dk1():
    st0, st1 = (realize(IndecLabel.steinberg(r), "DK1") for r in (0, 1))
    o = realize(IndecLabel.syz_pos(1, 0), "DK1")
    for m in (st0, st1, tensor(o, st1), tensor(o, o)):
        assert is_negligible(m) == negligible_by_traces(m)
    assert is_negligible(st0) and is_negligible(st1)
    assert not is_negligible(tensor(o, o))


def test_negligible_matches_traces_with_a_non_diagonal_pivot():
    """DK1 sums scrambled inside the eigenspaces of c, so that the pivot b
    is no longer diagonal."""
    cases = [(("O(+1,0)", "St(1)"), False), (("M(1,0,0)", "St(1)"), True),
             (("P(0)", "St(0)"), True)]
    rng = random.Random(5)
    for texts, negligible in cases:
        m = direct_sum([realize(IndecLabel.parse(t), "DK1") for t in texts])
        c = m.actions["c"]
        steps = []
        while len(steps) < m.dim:
            i, j = rng.sample(range(m.dim), 2)
            if c[i, i] == c[j, j]:
                steps.append((i, j, rng.choice((-1, 1))))
        s = conjugated(m, steps)
        assert check_module(s).ok
        assert s.actions["c"] == c  # g commutes with c
        assert any(i != j for i, j in s.actions["b"].data), "b is diagonal"
        assert is_negligible(s) == negligible_by_traces(s) == negligible, \
            texts


def mixed_dk1_modules():
    """(labels, module): seeded DK1 sums of K2 labels and Steinberg
    modules, in a seeded basis that mixes the bc = 1 and bc = -1 blocks,
    so bc is not diagonal; the last one's qdims cancel, and it is not
    negligible."""
    rng = random.Random(13)
    steinberg = [IndecLabel.steinberg(r) for r in (0, 1)]
    draws = [rng.sample(GUARD_LABELS, rng.randint(1, 2))
             + rng.sample(steinberg, rng.randint(1, 2)) for _ in range(8)]
    draws.append([IndecLabel.parse(t) for t in ("O(+1,0)", "O(+1,1)",
                                                "St(1)")])
    out = []
    for labels in draws:
        m = direct_sum([realize(lbl, "DK1") for lbl in labels])
        steps = [(*rng.sample(range(m.dim), 2), rng.choice((-1, 1)))
                 for _ in range(2 * m.dim)]
        s = conjugated(m, steps)
        assert check_module(s).ok
        bc = s.actions["b"] * s.actions["c"]
        assert any(i != j for i, j in bc.data), "bc is diagonal"
        out.append((sorted(labels, key=IndecLabel.sort_key), s))
    return out


def test_dk1_blocks_in_a_mixing_basis():
    """is_negligible, which tests only the bc = 1 block, equals the trace
    definition on all of End(M), and identify returns the drawn labels."""
    seen = set()
    for labels, m in mixed_dk1_modules():
        want = negligible_by_traces(m)
        assert is_negligible(m) == want, labels
        seen.add((want, qdim(m) == 0))
        assert identify(m) == labels
    assert seen == {(True, True), (False, True), (False, False)}


def test_is_negligible_solves_only_k2_systems_over_dk1(monkeypatch):
    """The hom system of a DK1 module of qdim 0 is that of its bc = 1
    block, a K2 module, with its free part peeled off."""
    from greenring import ideal
    built = []
    hom_rows = ideal.hom_rows
    monkeypatch.setattr(ideal, "hom_rows",
                        lambda m, n: built.append(m) or hom_rows(m, n))
    mods = [m for _, m in mixed_dk1_modules() if not qdim(m)]
    assert len(mods) >= 4
    for m in mods:
        is_negligible(m)
    assert len(built) == len(mods)
    assert {b.algebra.name for b in built} == {"K2"}


def test_a_nonzero_qdim_decides_before_any_hom_system(monkeypatch):
    """The identity is in End(M) and tr(K id) = qdim(M): on every seeded
    K2 product and DK1 module with qdim != 0, is_negligible is False, as
    the trace definition says, and it never builds the hom system."""
    from greenring import ideal
    rng = random.Random(7)
    pairs = [(rng.choice(GUARD_LABELS), rng.choice(GUARD_LABELS))
             for _ in range(40)]
    k2 = [tensor(realize(a, "K2"), realize(b, "K2")) for a, b in pairs]
    st0, st1 = (realize(IndecLabel.steinberg(r), "DK1") for r in (0, 1))
    o = realize(IndecLabel.syz_pos(1, 0), "DK1")
    dk1 = [st0, st1, o, tensor(o, st1), tensor(o, o)]
    certified = [m for m in k2 + dk1 if qdim(m)]
    assert sum(m.algebra.name == "K2" for m in certified) >= 5
    assert {o, dk1[-1]} <= set(certified)
    built = []
    hom_rows = ideal.hom_rows
    monkeypatch.setattr(ideal, "hom_rows",
                        lambda m, n: built.append(m) or hom_rows(m, n))
    for m in certified:
        assert is_negligible(m) is False
        assert not negligible_by_traces(m)
    assert built == []
    # the spy sees the modules whose qdim is 0; over DK1 only their bc = 1
    # block, a K2 module, which is zero for a Steinberg module
    assert is_negligible(st0)
    assert [(b.algebra.name, b.dim) for b in built] == [("K2", 0)]


def test_projectives_are_negligible_by_the_definition():
    """The theorem the peel rests on, checked on the trace definition
    itself: the quantum trace vanishes on End(P) for projective P."""
    p0, p1 = (realize(IndecLabel.proj(r), "K2") for r in (0, 1))
    for m in (p0, p1, direct_sum([p0, p1, p1])):
        assert negligible_by_traces(m)


def test_negligible_matches_traces_after_the_peel(monkeypatch):
    """Seeded K2 products with qdim 0, a free part and a nonzero
    remainder, products whose remainder is not negligible, and unimodular
    scrambles of them with a non-diagonal K: is_negligible, which tests
    only the remainder, equals the trace definition on all of End(M), and
    the spy sees the peel split off free summands each time."""
    from greenring import ideal
    peeled = []
    peel = ideal._peel_projectives

    def spy(m):
        projs, rest = peel(m)
        peeled.append((len(projs), rest.dim))
        return projs, rest

    monkeypatch.setattr(ideal, "_peel_projectives", spy)
    rng = random.Random(11)
    mods = []
    while len(mods) < 8:
        a, b = rng.choice(GUARD_LABELS), rng.choice(GUARD_LABELS)
        kinds = {lbl.kind for lbl in green_mul_labels(a, b).coeffs}
        m = tensor(realize(a, "K2"), realize(b, "K2"))
        if "P" in kinds and kinds != {"P"} and not qdim(m):
            mods.append(m)
    # qdims that cancel: (O(+1,0) + O(+1,1)) x O(-1,0) is V(0) + V(1) + 4 P
    pair = direct_sum([realize(IndecLabel.parse(t), "K2")
                       for t in ("O(+1,0)", "O(+1,1)")])
    for text in ("O(-1,0)", "O(+2,1)"):
        mods.append(tensor(pair, realize(IndecLabel.parse(text), "K2")))
    for m in mods[:8:3] + mods[-2:]:
        steps = [(*rng.sample(range(m.dim), 2), rng.choice((-1, 1)))
                 for _ in range(m.dim)]
        c = conjugated(m, steps)
        assert check_module(c).ok
        assert any(i != j for i, j in c.actions["K"].data), "K is diagonal"
        mods.append(c)
    seen = set()
    for m in mods:
        want = negligible_by_traces(m)
        assert not qdim(m)
        assert is_negligible(m) == want
        seen.add(want)
    assert seen == {True, False}  # both outcomes are exercised
    assert len(peeled) == len(mods)
    assert all(n >= 1 and d > 0 for n, d in peeled), peeled


FUSION_LABELS = list(dict.fromkeys(
    _k2_labels(4, 0, []) + _k2_labels(0, 4, STANDARD_ETAS[3:5])))


def fusion_products():
    """(a, b, a x b) for the 1296 ordered pairs of the fusion sweep's 36
    labels, up to O(+-4) (dimension 9) and M_4 (dimension 8)."""
    assert len(FUSION_LABELS) == 36
    mods = {a: realize(a, "K2") for a in FUSION_LABELS}
    return [(a, b, tensor(mods[a], mods[b]))
            for a in FUSION_LABELS for b in FUSION_LABELS]


def test_negligible_on_the_whole_fusion_sweep():
    """Negligible modules form a tensor ideal that holds exactly the P
    and M indecomposables, so a x b is negligible iff every summand of
    its closed form is P or M.  This covers the 96 products of dimension
    above 56, up to 81, which the full End(M x N) solve made too slow."""
    seen = set()
    for a, b, m in fusion_products():
        want = all(lbl.kind in ("P", "M")
                   for lbl in green_mul_labels(a, b).coeffs)
        assert is_negligible(m) == want, (str(a), str(b))
        seen.add(want)
    assert seen == {True, False}


def test_hom_systems_on_the_fusion_sweep_stay_small(monkeypatch):
    """A clock-free guard: the live unknowns and the rows of every hom
    system is_negligible builds over the 1296 products, summed.  Unlike
    the wall clock, these counts do not move with host load.  Before the
    free part was peeled off, the 1200 products of dimension <= 56 alone
    built 352,256 live unknowns and 676,320 rows; the 96 larger ones were
    too slow to count here."""
    from greenring import ideal
    sizes = []
    hom_rows = ideal.hom_rows

    def spy(m, n):
        rows, live = hom_rows(m, n)
        sizes.append((len(live), len(rows)))
        return rows, live

    monkeypatch.setattr(ideal, "hom_rows", spy)
    products = fusion_products()
    for _, _, m in products:
        is_negligible(m)
    # one system per product of qdim 0; the others are decided by qdim
    assert len(sizes) == sum(not qdim(m) for _, _, m in products) == 972
    assert sum(n for n, _ in sizes) <= 13120
    assert sum(r for _, r in sizes) <= 15680


def test_zero_module_is_negligible():
    z = zero_module(realize(IndecLabel.simple(0), "K2").algebra)
    assert is_negligible(z) and negligible_by_traces(z)


def test_quasi_dominated():
    yes = direct_sum([realize(IndecLabel.simple(1), "K2"),
                      realize(IndecLabel.mtype(1, 0, ETA1), "K2"),
                      realize(IndecLabel.proj(0), "K2")])
    assert is_quasi_dominated(yes)
    no = direct_sum([realize(IndecLabel.simple(0), "K2"),
                     realize(IndecLabel.syz_pos(1, 0), "K2")])
    assert not is_quasi_dominated(no)
    assert is_quasi_dominated(realize(IndecLabel.steinberg(0), "DK1"))
    assert not is_quasi_dominated(realize(IndecLabel.syz_neg(1, 0), "DK1"))
