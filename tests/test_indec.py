"""Indecomposable labels, realizations, syzygies, identification."""

import random
import sys
from itertools import chain

import pytest

from greenring.errors import (AlgebraMismatch, GreenRingError, InvalidLabel,
                              NoSolution, NotInR0, OutOfRange, Unclassified)
from greenring import indec, rep
from greenring.green import STANDARD_ETAS, green_mul_labels
from greenring.hopf import build_km
from greenring.indec import (EtaPoint, IndecLabel, identify, label_shape,
                             realize, shape_label, syzygy)
from greenring.ratlin import (Rat, RatMatrix, _scaled, block_diag,
                              kernel_basis, trace_form_radical)
from greenring.rep import (ModuleRep, check_module, decompose, direct_sum,
                           dual, in_r0, inflate_pi, is_isomorphic,
                           kronecker_block, principal_projective,
                           quotient_module, radical_vectors, restrict_pi,
                           socle_vectors, tensor, trivial_module)
from greenring.verify import _k2_labels


def test_label_parse_roundtrip():
    for text in ("V(0)", "V(1)", "P(0)", "P(1)", "O(+2,0)", "O(-1,1)",
                 "M(3,0,2/3)", "M(1,1,inf)", "St(0)", "St(1)"):
        assert str(IndecLabel.parse(text)) == text


def test_label_parse_rejects_garbage():
    for text in ("V(2)", "Q(0)", "O(0,0)", "M(0,0,1)", "", "M(1,0)"):
        with pytest.raises(InvalidLabel):
            IndecLabel.parse(text)


def test_label_dims():
    assert IndecLabel.simple(0).dim() == 1
    assert IndecLabel.proj(1).dim() == 4
    assert IndecLabel.syz_pos(3, 0).dim() == 7
    assert IndecLabel.syz_neg(2, 1).dim() == 5
    assert IndecLabel.mtype(4, 0, EtaPoint.infinity()).dim() == 8
    assert IndecLabel.steinberg(0).dim() == 2


def test_label_duality():
    eta = EtaPoint.finite(5, 7)
    assert IndecLabel.syz_pos(2, 1).dual() == IndecLabel.syz_neg(2, 1)
    assert IndecLabel.mtype(2, 0, eta).dual() == IndecLabel.mtype(2, 1, eta)
    assert IndecLabel.steinberg(1).dual() == IndecLabel.steinberg(0)


def test_steinberg_only_for_dk1():
    st = IndecLabel.steinberg(0)
    assert st.valid_for("DK1") and not st.valid_for("K2")
    with pytest.raises(InvalidLabel):
        realize(st, "K2")


def test_eta_point_parse():
    assert EtaPoint.parse("inf").is_infinite
    assert str(EtaPoint.parse("2/3")) == "2/3"
    assert EtaPoint.parse("0") == EtaPoint.finite(0, 1)


def test_realizations_are_modules():
    labels = [IndecLabel.simple(1), IndecLabel.proj(0),
              IndecLabel.syz_pos(2, 0), IndecLabel.syz_neg(3, 1),
              IndecLabel.mtype(2, 1, EtaPoint.finite(-1, 1)),
              IndecLabel.mtype(1, 0, EtaPoint.infinity())]
    for alg in ("K2", "DK1"):
        for lbl in labels:
            m = realize(lbl, alg)
            assert m.dim == lbl.dim()
            assert check_module(m).ok
            assert len(decompose(m)) == 1
    assert check_module(realize(IndecLabel.steinberg(0), "DK1")).ok


def test_realized_dual_matches_label_dual():
    for lbl in (IndecLabel.syz_pos(1, 0),
                IndecLabel.mtype(2, 0, EtaPoint.finite(1, 1)),
                IndecLabel.steinberg(1)):
        alg = "DK1" if lbl.kind == "St" else "K2"
        ok, _ = is_isomorphic(dual(realize(lbl, alg)),
                              realize(lbl.dual(), alg))
        assert ok


def test_syzygy_matches_labels():
    """syzygy, built by covers and hulls, is the module that O(+-|k|, r)
    names; its witness carries the Kronecker realization to it."""
    for k in chain(range(-8, 0), range(1, 9)):
        for r in (0, 1):
            m = syzygy(k, r)
            if k > 0:
                want = IndecLabel.syz_pos(k, r)
            else:
                want = IndecLabel.syz_neg(-k, r)
            assert identify(m) == [want]
            labels, g = indec.witness(m)
            assert labels == [want]
            _check_witness(m, labels, g)


def test_syzygy_out_of_range():
    with pytest.raises(OutOfRange):
        syzygy(0, 0)
    # any nonzero depth is realized
    assert identify(syzygy(9, 0)) == [IndecLabel.syz_pos(9, 0)]


def test_identify_full_direct_sums():
    m = tensor(realize(IndecLabel.proj(0), "K2"),
               realize(IndecLabel.simple(1), "K2"))
    assert identify(m) == [IndecLabel.proj(1)]


def test_identify_mtype_recovers_eta():
    eta = EtaPoint.finite(5, 7)
    lbl = IndecLabel.mtype(3, 1, eta)
    assert identify(realize(lbl, "K2")) == [lbl]
    lbl = IndecLabel.mtype(2, 0, EtaPoint.infinity())
    assert identify(realize(lbl, "DK1")) == [lbl]


def test_r0_restriction_and_inflation():
    m = realize(IndecLabel.mtype(1, 0, EtaPoint.finite(0, 1)), "DK1")
    assert in_r0(m)
    k2m = restrict_pi(m)
    assert k2m.algebra.name == "K2" and k2m.dim == m.dim
    back = inflate_pi(k2m)
    ok, _ = is_isomorphic(back, m)
    assert ok


def test_steinberg_not_in_r0():
    st = realize(IndecLabel.steinberg(0), "DK1")
    assert not in_r0(st)
    with pytest.raises(NotInR0):
        restrict_pi(st)


# calibration facts pinning the sign/parameter conventions


def test_calibration_mtype_selftensor_detects_eta():
    """M(1,0,eta) x M(1,0,eta') has a non-projective summand iff eta=eta'."""
    etas = [EtaPoint.finite(0, 1), EtaPoint.finite(1, 1),
            EtaPoint.finite(2, 3), EtaPoint.infinity()]
    for e1 in etas:
        for e2 in etas:
            t = tensor(realize(IndecLabel.mtype(1, 0, e1), "K2"),
                       realize(IndecLabel.mtype(1, 0, e2), "K2"))
            nonproj = [l for l in identify(t) if l.kind != "P"]
            assert bool(nonproj) == (e1 == e2)


def test_calibration_steinberg():
    v1 = realize(IndecLabel.simple(1), "DK1")
    st0 = realize(IndecLabel.steinberg(0), "DK1")
    ok, _ = is_isomorphic(tensor(v1, st0),
                          realize(IndecLabel.steinberg(1), "DK1"))
    assert ok
    assert identify(tensor(st0, st0)) == [IndecLabel.proj(1)]


def test_mtype_radical_dimension():
    # head has dimension n, radical n: the two-step Loewy shape
    m = realize(IndecLabel.mtype(3, 0, EtaPoint.finite(1, 2)), "K2")
    assert len(radical_vectors(m)) == 3


def test_k3_projectives_realize():
    # principal projectives exist for every K_m, not just m=2
    from greenring.rep import principal_projective
    a = build_km(3)
    p, incl = principal_projective(a, 0)
    assert p.dim == 8 and check_module(p).ok
    assert incl.rank() == 8


# identify on direct sums with a free part, in a scrambled basis

GUARD_ETAS = (EtaPoint.finite(0, 1), EtaPoint.finite(2, 3),
              EtaPoint.infinity())
GUARD_LABELS = ([IndecLabel.simple(r) for r in (0, 1)]
                + [IndecLabel.proj(r) for r in (0, 1)]
                + [IndecLabel.syz_pos(s, r) for s in (1, 2) for r in (0, 1)]
                + [IndecLabel.syz_neg(s, r) for s in (1, 2) for r in (0, 1)]
                + [IndecLabel.mtype(n, r, e) for n in (1, 2) for r in (0, 1)
                   for e in GUARD_ETAS])


def _conjugated(m, steps):
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


def _scrambled(m, rng):
    """M in the basis g, a seeded product of elementary matrices I +- E_ij."""
    steps = [(*rng.sample(range(m.dim), 2), rng.choice((-1, 1)))
             for _ in range(m.dim)]
    # g^-1 A g, where g^-1 is the product of the inverse steps, reversed
    return _conjugated(m, [(i, j, -c) for i, j, c in reversed(steps)])


@pytest.mark.parametrize("seed", range(12))
def test_identify_free_part_under_basis_change(seed):
    rng = random.Random(seed)
    labels = [IndecLabel.proj(rng.randrange(2))]
    labels += [rng.choice(GUARD_LABELS) for _ in range(rng.randint(1, 3))]
    m = _scrambled(direct_sum([realize(l, "K2") for l in labels]), rng)
    assert check_module(m).ok
    assert identify(m) == sorted(labels, key=IndecLabel.sort_key)


# identify with no free part, in a scrambled basis: decompose moves M to a
# K-eigenbasis first, and every piece it splits off keeps a diagonal K

DENSE_LABELS = ([IndecLabel.simple(r) for r in (0, 1)]
                + [IndecLabel.syz_pos(s, r) for s in (1, 2, 3) for r in (0, 1)]
                + [IndecLabel.syz_neg(s, r) for s in (1, 2, 3) for r in (0, 1)]
                + [IndecLabel.mtype(n, r, e) for n in (1, 2, 3)
                   for r in (0, 1) for e in STANDARD_ETAS])


def _check_k_eigenbasis(m):
    """M is K-type with a K that is not diagonal; its K-eigenbasis form is
    an isomorphic module with K = diag(1, ..., 1, -1, ..., -1), and
    P = [ker(K - I) | ker(K + I)] is the isomorphism."""
    assert any(i != j for i, j in m.actions["K"].data)
    e = rep._k_eigenbasis(m)
    assert check_module(e).ok
    signs = [e.actions["K"][i, i] for i in range(e.dim)]
    assert e.actions["K"] == RatMatrix.diagonal(signs)
    assert signs == [1] * signs.count(1) + [-1] * signs.count(-1)
    k, ident = m.actions["K"], RatMatrix.identity(m.dim)
    p = RatMatrix.from_columns(kernel_basis(k - ident)
                               + kernel_basis(k + ident), rows=m.dim)
    assert p.rank() == m.dim
    for lbl, a in m.actions.items():
        assert a * p == p * e.actions[lbl]


@pytest.mark.parametrize("seed", range(24))
def test_identify_without_free_part_under_basis_change(seed):
    """Seeds 12 and up repeat a summand, [L, L, L'] or [L, L, L], so that
    End(M)/rad holds M_2(Q) or M_3(Q)."""
    rng = random.Random(seed)
    if seed < 12:
        labels = [rng.choice(DENSE_LABELS) for _ in range(rng.randint(2, 3))]
    else:
        lbl = rng.choice(DENSE_LABELS)
        labels = [lbl, lbl, lbl if seed % 2 else rng.choice(DENSE_LABELS)]
    m = _scrambled(direct_sum([realize(l, "K2") for l in labels]), rng)
    assert check_module(m).ok
    _check_k_eigenbasis(m)
    assert identify(m) == sorted(labels, key=IndecLabel.sort_key)


def test_decompose_k3_under_basis_change():
    a = build_km(3)
    proj = principal_projective(a, 1)[0]
    parts = [principal_projective(a, 0)[0], trivial_module(a),
             quotient_module(proj, [_scaled(v)[0]
                                    for v in socle_vectors(proj)])[0]]
    m = _scrambled(direct_sum(parts), random.Random(3))
    assert check_module(m).ok
    _check_k_eigenbasis(m)
    got = decompose(m)
    assert sorted(s.dim for s in got) == [1, 7, 8]
    for part in parts:
        assert any(is_isomorphic(part, s)[0] for s in got)


def test_identify_dk1_with_bc_one_under_basis_change():
    labels = [IndecLabel.parse("O(+1,0)"), IndecLabel.parse("M(1,1,2/3)")]
    m = _scrambled(direct_sum([realize(l, "DK1") for l in labels]),
                   random.Random(5))
    assert check_module(m).ok
    assert m.actions["b"] * m.actions["c"] == RatMatrix.identity(m.dim)
    _check_k_eigenbasis(rep.restrict_pi(m))
    assert identify(m) == labels


@pytest.mark.parametrize("r", (0, 1))
def test_steinberg_is_identified_with_one_certificate(r, monkeypatch):
    """St(r) in a basis where a is not the canonical one is identified by
    one call to the checked witness of rep._steinberg_parities, with no
    is_isomorphic call."""
    st = realize(IndecLabel.steinberg(r), "DK1")
    m = _conjugated(st, [(0, 1, 1), (1, 0, -2)])
    assert m.actions["a"] != st.actions["a"] and check_module(m).ok
    witnessed, compared = [], []

    def counted_witness(block):
        witnessed.append(block.dim)
        return rep._steinberg_parities(block)

    monkeypatch.setattr(indec, "_steinberg_parities", counted_witness)
    monkeypatch.setattr(indec, "is_isomorphic",
                        lambda a, b: compared.append(b) or is_isomorphic(a, b))
    assert identify(m) == [IndecLabel.steinberg(r)]
    assert witnessed == [2]
    assert compared == []


def _mixed_steinberg_sums():
    """(labels, module): seeded DK1 sums of St(0)^a, St(1)^b and r0
    labels, in a seeded basis where bc is not diagonal."""
    rng = random.Random(17)
    st0, st1 = (IndecLabel.steinberg(r) for r in (0, 1))
    draws = []
    for _ in range(8):
        a = rng.randint(0, 3)
        draws.append([st0] * a + [st1] * rng.randint(a == 0, 3)
                     + rng.sample(GUARD_LABELS, rng.randint(1, 2)))
    draws.append([st0, st1, st1] + [IndecLabel.parse(t) for t in (
        "P(1)", "M(2,0,2/3)")])
    out = []
    for labels in draws:
        m = _scrambled(direct_sum([realize(l, "DK1") for l in labels]), rng)
        assert check_module(m).ok
        bc = m.actions["b"] * m.actions["c"]
        assert any(i != j for i, j in bc.int_form()[0]), "bc is diagonal"
        out.append((sorted(labels, key=IndecLabel.sort_key), m))
    return out


def test_steinberg_copies_are_split_by_one_checked_witness(monkeypatch):
    """identify returns the drawn labels, with no is_isomorphic call: the
    Steinberg copies are certified by the witness of
    rep._steinberg_parities, and the bc = 1 block by the Kronecker witness.
    decompose returns the canonical St(r)."""
    calls = []

    def counted(a, b):
        calls.append(a.algebra.name)
        return is_isomorphic(a, b)

    monkeypatch.setattr(rep, "is_isomorphic", counted)
    monkeypatch.setattr(indec, "is_isomorphic", counted)
    seen = set()
    for labels, m in _mixed_steinberg_sums():
        assert identify(m) == labels
        st = [s for s in decompose(m) if not in_r0(s)]
        want = [realize(l, "DK1") for l in labels if l.kind == "St"]
        assert len(st) == len(want)
        assert all(s is w for s, w in zip(st, want))
        seen.update(l.kind for l in labels)
    assert {"St", "P", "M"} <= seen
    assert calls == []


@pytest.mark.parametrize("gen, scale", (("d", 3), ("a", 0)))
def test_a_broken_steinberg_block_fails_its_witness(gen, scale):
    """St(0) + St(1) with d scaled by 3, so ad + da != 2, or with a = 0, so
    ker a is too large: bc = -1, but the witness fails."""
    m = direct_sum([realize(IndecLabel.steinberg(r), "DK1") for r in (0, 1)])
    m = ModuleRep(m.algebra, m.dim,
                  dict(m.actions, **{gen: m.actions[gen].scale(scale)}))
    assert m.actions["b"] * m.actions["c"] == -RatMatrix.identity(m.dim)
    assert not check_module(m).ok
    for f in (identify, decompose):
        with pytest.raises(GreenRingError, match="not a sum of Steinberg"):
            f(m)


@pytest.mark.parametrize("texts", (("O(+16,0)", "St(1)"),
                                   ("M(8,0,1)", "St(0)")))
def test_no_dk1_module_reaches_the_meataxe(texts, monkeypatch):
    """The Steinberg block is split by its witness, and the bc = 1 blocks
    of these products are free: the meataxe never runs."""
    calls = []
    meataxe = rep._meataxe
    monkeypatch.setattr(rep, "_meataxe", lambda m: calls.append(m)
                        or meataxe(m))
    m = tensor(*(realize(IndecLabel.parse(t), "DK1") for t in texts))
    labels = identify(m)
    assert sum(l.dim() for l in labels) == m.dim
    assert len(decompose(m)) == len(labels)
    assert calls == []


@pytest.mark.parametrize("texts, systems", ((("O(+8,0)", "O(-8,1)"), 0),
                                            (("P(0)", "O(+8,1)"), 0)))
def test_dk1_identify_solves_the_k2_hom_systems(texts, systems, monkeypatch):
    """identify of an r0 product over DK1 solves as many hom systems as
    over K2, and that is none: the bc = 1 block takes the K2 route, whose
    remainder is split by the Kronecker form and certified by its witness,
    and a peeled P(r) is labelled by the peel."""
    counts = []
    hom_basis = rep.hom_basis
    monkeypatch.setattr(rep, "hom_basis",
                        lambda m, n: counts.append(m) or hom_basis(m, n))
    labels, solved = {}, {}
    for alg in ("K2", "DK1"):
        m = tensor(*(realize(IndecLabel.parse(t), alg) for t in texts))
        counts.clear()
        labels[alg] = identify(m)
        solved[alg] = len(counts)
    assert labels["K2"] == labels["DK1"]
    assert solved == {"K2": systems, "DK1": systems}


@pytest.mark.parametrize("text", ("St(0)", "O(+1,0)"))
def test_identify_indecomposable_rejects_a_dk1_module(text):
    with pytest.raises(AlgebraMismatch, match="not DK1 ones"):
        indec.identify_indecomposable(realize(IndecLabel.parse(text), "DK1"))


def test_submodule_rejects_a_span_that_is_not_a_submodule():
    p0 = principal_projective(build_km(2), 0)[0]
    pivots = {min(v) for v in radical_vectors(p0)}
    (head,) = [j for j in range(p0.dim) if j not in pivots]
    with pytest.raises(NoSolution):
        rep.submodule(p0, [{head: Rat(1)}])


@pytest.mark.parametrize("seed", range(8))
def test_image_submodule_and_quotient_of_an_endomorphism(seed):
    """For theta in End(M), M a scrambled sum: im(theta) as a submodule
    and M / im(theta), checked as maps of modules."""
    rng = random.Random(seed)
    labels = [rng.choice(GUARD_LABELS) for _ in range(rng.randint(2, 3))]
    m = _scrambled(direct_sum([realize(l, "K2") for l in labels]), rng)
    endos = rep.hom_basis(m, m)
    theta = RatMatrix.zeros(m.dim, m.dim)
    for e in endos:
        theta = theta + e.scale(rng.randint(-2, 2))
    sub, incl = rep.submodule(m, theta.col_dicts())
    quot, proj = quotient_module(m, theta.transpose().int_rows())
    for lbl, a in m.actions.items():
        assert incl * sub.actions[lbl] == a * incl
        assert proj * a == quot.actions[lbl] * proj
    assert incl.rank() == sub.dim == theta.rank()
    assert proj.rank() == quot.dim
    assert sub.dim + quot.dim == m.dim
    assert (proj * incl).is_zero()


def test_identify_splits_three_summands_with_no_meataxe(monkeypatch):
    """O(-2,1) + O(-1,1) + M(2,0,5/7) in a scrambled basis, where End(M)/rad
    is Q^3: the Kronecker route splits it with no call to the meataxe or
    its idempotent split, and needs no sympy."""
    monkeypatch.setitem(sys.modules, "sympy", None)
    calls = {"_meataxe": 0, "_meataxe_idempotent": 0, "_split_idempotent": 0,
             "hom_basis": 0}
    for name in calls:
        original = getattr(rep, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rep, name, counted)
    summands = [IndecLabel.parse(t) for t in ("O(-2,1)", "O(-1,1)",
                                              "M(2,0,5/7)")]
    # the basis change is g = E_12 ... E_2 E_1 for the elementary steps
    # E_k = I + c E_ij below; _conjugated multiplies on the right
    steps = [(0, 3, 1), (11, 0, -1), (2, 1, 1), (4, 8, 1), (2, 11, 1),
             (0, 2, 1), (9, 0, -1), (2, 11, 1), (6, 11, -1), (7, 3, -1),
             (2, 1, 1), (0, 9, 1)]
    m = _conjugated(direct_sum([realize(l, "K2") for l in summands]),
                    steps[::-1])
    assert check_module(m).ok
    assert identify(m) == [IndecLabel.parse("O(-1,1)"),
                           IndecLabel.parse("O(-2,1)"),
                           IndecLabel.parse("M(2,0,5/7)")]
    assert calls == {"_meataxe": 0, "_meataxe_idempotent": 0,
                     "_split_idempotent": 0, "hom_basis": 0}


def repeated_summand_module():
    """O(+1,0) + O(+1,0) + O(-1,1) in a basis where an End(M) meataxe
    splits off O(-1,1), and then no basis element b_i of End/rad = M_2(Q)
    of the piece O(+1,0)^2, nor b_0 + b_1, splits it: mod rad each is a
    scalar or has the minimal polynomial t^2 + 1, t^2 + t + 1 or t^2 + t +
    4.  The difference b_0 - b_1 has the eigenvalues 0 and -1.  The
    Kronecker route reads both copies of O(+1,0) off one pencil."""
    labels = [IndecLabel.parse(t) for t in ("O(+1,0)", "O(+1,0)", "O(-1,1)")]
    steps = [(2, 3, 1), (4, 0, 1), (3, 1, -1), (3, 1, 1), (6, 4, -1),
             (1, 5, -1), (4, 2, -1), (1, 2, -1), (0, 1, 1)]
    return _conjugated(direct_sum([realize(l, "K2") for l in labels]),
                       steps[::-1])


def test_identify_splits_a_repeated_summand_at_a_difference():
    m = repeated_summand_module()
    assert check_module(m).ok
    assert identify(m) == [IndecLabel.parse(t)
                           for t in ("O(+1,0)", "O(+1,0)", "O(-1,1)")]


def _band(b):
    """The K2 band module on which x1 is I and x2 is the matrix b, both
    from the K = 1 block to the K = -1 block.  For a cyclic b, End is
    Q[b]; when the minimal polynomial of b is a power of an irreducible
    f, End/rad is the field Q[t]/f, and the module is indecomposable."""
    k = len(b)
    m = ModuleRep(build_km(2), 2 * k, {
        "K": RatMatrix.diagonal([1] * k + [-1] * k),
        "x1": RatMatrix(2 * k, 2 * k, {(k + i, i): Rat(1)
                                       for i in range(k)}),
        "x2": RatMatrix(2 * k, 2 * k, {
            (k + i, j): Rat(v) for i, row in enumerate(b)
            for j, v in enumerate(row) if v})})
    assert check_module(m).ok
    return m


def test_identify_rejects_a_module_with_residue_field_q_i():
    """End = Q(i): no rational-eta label names the module."""
    with pytest.raises(Unclassified, match="residue field has degree 2"):
        identify(_band([[0, -1], [1, 0]]))


def test_split_idempotent_reads_the_squarefree_part():
    """On the band of length 2 at t^2 + 1, End/rad is still Q(i).  The
    endomorphism acting by b on both blocks has minimal polynomial
    (t^2 + 1)^2; its squarefree part t^2 + 1 certifies the field."""
    b = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]
    m = _band(b)
    endos = rep.hom_basis(m, m)
    q = len(endos) - len(trace_form_radical(endos))
    assert q == 2
    theta = block_diag([RatMatrix.from_rows(b)] * 2)
    assert all(theta * a == a * theta for a in m.actions.values())
    with pytest.raises(Unclassified, match="degree 2"):
        rep._split_idempotent(m, theta, q)


def test_identify_cannot_certify_a_residue_field_of_degree_4():
    """End = Q(2^(1/4)): the regular part of the pencil has no rational
    point, so no label names the module, and the error names the degree
    left over."""
    with pytest.raises(Unclassified, match="residue field has degree 4"):
        identify(_band([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0]]))


def test_unclassified_counts_the_blocks_at_infinity():
    """The band of t^2 + 1 with M(2,0,inf) and O(-2,0), scrambled: the
    blocks at infinity are read off before Phi, which sees only the band,
    and the regular part the error names still counts them."""
    labels = [IndecLabel.parse(t) for t in ("M(2,0,inf)", "O(-2,0)")]
    m = _scrambled(direct_sum([_band([[0, -1], [1, 0]])]
                              + [realize(l, "K2") for l in labels]),
                   random.Random(5))
    with pytest.raises(Unclassified, match="a regular part of dimension 4 "
                       "has 2 dimensions .* degree 2 "):
        identify(m)


def _check_witness(m, labels, g):
    """g is invertible and carries the sum of the realizations to M."""
    target = direct_sum([realize(l, "K2") for l in labels])
    assert g.rows == g.cols == m.dim == target.dim == g.rank()
    for x, a in m.actions.items():
        assert a * g == g * target.actions[x]


def test_round_trip_of_every_realization_with_its_witness():
    """realize -> scramble -> identify, for every K2 label with s <= 8 and
    n <= 4 that has no projective part, both parities and every standard
    eta: realize gives the label's Kronecker block, label_shape inverts
    shape_label, and witness returns the label and a checked
    isomorphism."""
    rng = random.Random(11)
    for lbl in _k2_labels(8, 4, STANDARD_ETAS):
        if lbl.kind == "P":
            continue
        m = realize(lbl, "K2")
        shape = label_shape(lbl)
        assert shape_label(shape) == lbl
        assert m.actions == kronecker_block(shape).actions
        if m.dim > 1:
            m = _scrambled(m, rng)
        labels, g = indec.witness(m)
        assert labels == [lbl]
        _check_witness(m, labels, g)
        assert identify(m) == [lbl]


# L, LT and M blocks at infinity in one pencil: at infinity the tops that
# x2 kills head L blocks, and each LT chain steps down inside the flag
# Z_k, away from the bottom of M(1,0,inf)
INFINITY_SUMS = (
    ["V(0)", "M(1,0,inf)", "O(-3,0)", "M(1,0,0)"],
    ["O(+2,0)", "M(3,0,inf)", "O(-1,0)"],
)

WITNESS_SUMS = (
    ["O(+1,0)", "O(+1,0)", "V(1)"],
    ["M(2,0,1)"] * 4,
    ["M(1,0,0)", "M(2,0,inf)", "M(1,1,0)", "M(1,1,inf)"],
    ["V(0)", "V(1)", "O(+2,0)", "O(-2,1)", "O(+1,1)"],
    ["V(0)", "O(-1,0)", "O(-3,1)", "V(1)"],
    ["M(3,0,1)", "M(3,0,2/3)", "O(+1,1)"],
    ["M(3,0,-1)", "M(3,0,inf)", "V(0)", "O(+2,1)"],
    ["O(+3,0)", "M(2,1,5/7)", "O(-2,1)", "M(1,1,5/7)"],
    # an M chain with the head sign of a deep L block: its vectors carry
    # L-head parts
    ["O(+4,0)", "M(4,0,2/3)", "V(0)"],
    # infinity is read off before Phi, so tr(Phi)/n = 1 is no point
    ["M(1,0,0)", "M(1,0,2)", "M(2,0,inf)"],
    # tr(Phi)/n is no point
    ["M(1,0,0)", "M(1,0,2)", "O(+2,0)"],
    # tr(Phi)/n is a point, but not the only one
    ["M(1,0,-1)", "M(1,0,0)", "M(1,0,1)"],
) + INFINITY_SUMS


@pytest.mark.parametrize("seed", range(2 * len(WITNESS_SUMS)))
def test_identify_witness_on_scrambled_sums(seed):
    """Seeded scrambled sums with repeated summands (O(+1,0)^2,
    M(2,0,1)^4), eta = 0 and inf together, V's next to O(+-s), and M(3,0,
    eta) at two eta: identify's basis change g satisfies rho(x) g = g (+)
    realize(l_i)(x) for every generator."""
    _witness_round_trip(WITNESS_SUMS[seed % len(WITNESS_SUMS)], seed)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("texts", INFINITY_SUMS, ids=("v-lt3", "o2-lt1"))
def test_identify_witness_on_l_lt_and_infinity(texts, seed):
    """Six seeded scrambles of each L + LT + infinity sum: a reader at
    infinity that does not take the tops in ker x2 first, or an LT step
    solved over all of H, misreads some of them."""
    _witness_round_trip(texts, seed)


def _witness_round_trip(texts, seed):
    rng = random.Random(seed)
    labels = [IndecLabel.parse(t) for t in texts]
    m = _scrambled(direct_sum([realize(l, "K2") for l in labels]), rng)
    assert check_module(m).ok
    got, g = indec.witness(m)
    assert sorted(got, key=IndecLabel.sort_key) == sorted(
        labels, key=IndecLabel.sort_key) == identify(m)
    _check_witness(m, got, g)


def test_no_hom_system_meataxe_or_isomorphism_test_on_the_fusion_sweep(
        monkeypatch):
    """identify on the 1296 distinct products of the fusion sweep, over K2
    and over DK1, calls none of rep._meataxe, rep.hom_basis and
    rep.is_isomorphic, and its labels are the closed form's."""
    sweep = _k2_labels(4, 0, []) + _k2_labels(0, 4, STANDARD_ETAS[3:5])
    pairs = list(dict.fromkeys((a, b) for a in sweep for b in sweep))
    assert len(pairs) == 1296
    calls = []
    for name in ("_meataxe", "hom_basis", "is_isomorphic"):
        original = getattr(rep, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(rep, name, spy)
        if hasattr(indec, name):
            monkeypatch.setattr(indec, name, spy)
    for alg in ("K2", "DK1"):
        for a, b in pairs:
            got = identify(tensor(realize(a, alg), realize(b, alg)))
            want = green_mul_labels(a, b)
            assert got == sorted((l for l, c in want.coeffs.items()
                                  for _ in range(c)),
                                 key=IndecLabel.sort_key), (alg, a, b)
    assert calls == []


def test_a_tampered_basis_change_fails_the_witness(monkeypatch):
    """A basis change of the Kronecker split with one entry changed, still
    of full rank, raises GreenRingError, never a wrong label."""
    lbl = IndecLabel.parse("O(-2,1)")
    m = _scrambled(realize(lbl, "K2"), random.Random(4))
    assert identify(m) == [lbl]
    split = rep._kronecker_split

    def tampered(rest):
        shapes, g = split(rest)
        bad = g + RatMatrix(g.rows, g.cols, {(0, g.cols - 1): Rat(1)})
        assert bad.rank() == g.rows
        return shapes, bad

    monkeypatch.setattr(rep, "_kronecker_split", tampered)
    with pytest.raises(GreenRingError, match="witness"):
        identify(m)


def test_a_remainder_with_x1_x2_nonzero_is_refused(monkeypatch):
    """With the peel switched off, P(0) reaches the Kronecker route, where
    x1 x2 acts nonzero: GreenRingError, never a wrong label."""
    monkeypatch.setattr(rep, "_peel_projectives", lambda m: ([], m))
    for text in ("P(0)", "P(1)"):
        with pytest.raises(GreenRingError, match="x1 x2 acts nonzero"):
            identify(realize(IndecLabel.parse(text), "K2"))


@pytest.mark.parametrize("text", ("P(1)", "O(+2,1)", "O(-3,0)",
                                  "M(2,0,5/7)", "M(1,1,inf)"))
def test_identify_indecomposable_under_basis_change(text, monkeypatch):
    """Called directly on a module whose K is not diagonal,
    identify_indecomposable moves it to a K-eigenbasis and certifies the
    label with one witness check, in kronecker_route, against its
    realization, with no is_isomorphic call; P(1) is labelled by the peel,
    and its check is on an empty remainder."""
    lbl = IndecLabel.parse(text)
    m = _scrambled(realize(lbl, "K2"), random.Random(lbl.dim()))
    assert check_module(m).ok
    assert any(i != j for i, j in m.actions["K"].int_form()[0])
    compared, witnessed = [], []

    def counted(a, b):
        compared.append(b)
        return is_isomorphic(a, b)

    def counted_witness(m, g, blocks):
        witnessed.append([b.actions for b in blocks])
        return check_witness(m, g, blocks)

    check_witness = rep.check_witness
    monkeypatch.setattr(rep, "is_isomorphic", counted)
    monkeypatch.setattr(rep, "check_witness", counted_witness)
    assert indec.identify_indecomposable(m) == lbl
    assert compared == []
    # the free part of P(1) leaves an empty remainder to check
    assert witnessed == [[] if lbl.kind == "P"
                         else [realize(lbl, "K2").actions]]


@pytest.mark.parametrize("texts", (["V(0)", "V(1)"], ["O(+1,0)", "V(1)"],
                                   ["O(+1,0)", "V(1)", "V(1)"]))
def test_identify_indecomposable_rejects_a_direct_sum(texts):
    """On a direct sum identify finds every summand, so
    identify_indecomposable refuses the module."""
    labels = [IndecLabel.parse(t) for t in texts]
    m = direct_sum([realize(l, "K2") for l in labels])
    assert identify(m) == sorted(labels, key=IndecLabel.sort_key)
    with pytest.raises(GreenRingError, match="is not indecomposable"):
        indec.identify_indecomposable(m)
