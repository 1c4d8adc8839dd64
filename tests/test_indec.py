"""Indecomposable labels, realizations, syzygies, identification."""

import random
import sys

import pytest

from greenring.errors import (InvalidLabel, NonSplitField, NoSolution,
                              NotInR0, OutOfRange, Unclassified)
from greenring import indec, rep
from greenring.green import STANDARD_ETAS
from greenring.hopf import build_km
from greenring.indec import (EtaPoint, IndecLabel, identify, inflate_pi,
                             in_r0, realize, restrict_pi, syzygy)
from greenring.ratlin import Rat, RatMatrix, block_diag
from greenring.rep import (ModuleRep, check_module, decompose, direct_sum,
                           dual, is_isomorphic, principal_projective,
                           quotient_module, radical_vectors, socle_vectors,
                           tensor, trivial_module)


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
    for k in (-3, -2, -1, 1, 2, 3):
        for r in (0, 1):
            m = syzygy(k, r)
            if k > 0:
                want = IndecLabel.syz_pos(k, r)
            else:
                want = IndecLabel.syz_neg(-k, r)
            assert identify(m) == [want]


def test_syzygy_out_of_range():
    with pytest.raises(OutOfRange):
        syzygy(9, 0)
    with pytest.raises(OutOfRange):
        syzygy(0, 0)


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
    plus, minus = rep._k_eigen_split(m.actions["K"], m.dim)
    p = RatMatrix.from_columns(plus + minus, rows=m.dim)
    assert p.rank() == m.dim
    for lbl, a in m.actions.items():
        assert a * p == p * e.actions[lbl]


@pytest.mark.parametrize("seed", range(12))
def test_identify_without_free_part_under_basis_change(seed):
    rng = random.Random(seed)
    labels = [rng.choice(DENSE_LABELS) for _ in range(rng.randint(2, 3))]
    m = _scrambled(direct_sum([realize(l, "K2") for l in labels]), rng)
    assert check_module(m).ok
    _check_k_eigenbasis(m)
    assert identify(m) == sorted(labels, key=IndecLabel.sort_key)


def test_decompose_k3_under_basis_change():
    a = build_km(3)
    proj = principal_projective(a, 1)[0]
    parts = [principal_projective(a, 0)[0], trivial_module(a),
             quotient_module(proj, socle_vectors(proj))[0]]
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
    _check_k_eigenbasis(rep.dk1_as_k2_actions(m))
    assert identify(m) == labels


@pytest.mark.parametrize("r", (0, 1))
def test_steinberg_is_identified_with_one_certificate(r, monkeypatch):
    """tr(rho(b) rho(a) rho(d)) is +2 on St(0) and -2 on St(1), and is
    invariant under a basis change: it picks the one candidate."""
    st = realize(IndecLabel.steinberg(r), "DK1")
    m = _conjugated(st, [(0, 1, 1), (1, 0, -2)])
    assert m.actions["a"] != st.actions["a"] and check_module(m).ok
    calls = []

    def counted(a, b):
        calls.append(b)
        return is_isomorphic(a, b)

    monkeypatch.setattr(indec, "is_isomorphic", counted)
    assert identify(m) == [IndecLabel.steinberg(r)]
    assert calls == [st]


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
    endos = rep.hom_basis(m, m).basis
    theta = RatMatrix.zeros(m.dim, m.dim)
    for e in endos:
        theta = theta + e.scale(rng.randint(-2, 2))
    sub, incl = rep.submodule(m, theta.col_dicts())
    quot, proj = quotient_module(m, theta.col_dicts())
    for lbl, a in m.actions.items():
        assert incl * sub.actions[lbl] == a * incl
        assert proj * a == quot.actions[lbl] * proj
    assert incl.rank() == sub.dim == theta.rank()
    assert proj.rank() == quot.dim
    assert sub.dim + quot.dim == m.dim
    assert (proj * incl).is_zero()


def test_identify_reaches_the_idempotent_split(monkeypatch):
    """O(-2,1) + O(-1,1) + M(2,0,5/7) in a basis where, after the change to
    a K-eigenbasis, every Fitting candidate on one piece fails, so its
    End is split at a rational eigenvalue of a sampled endomorphism; the
    route needs no sympy."""
    monkeypatch.setitem(sys.modules, "sympy", None)
    calls = {"_meataxe_idempotent": 0, "_split_idempotent": 0}
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
    # _split_idempotent runs once per sampled endomorphism; the third
    # sample has a rational eigenvalue that splits the piece
    assert calls == {"_meataxe_idempotent": 1, "_split_idempotent": 3}


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
    endos = rep.hom_basis(m, m).basis
    q = len(endos) - len(rep._end_radical(endos))
    assert q == 2
    theta = block_diag([RatMatrix.from_rows(b)] * 2)
    assert all(theta * a == a * theta for a in m.actions.values())
    with pytest.raises(Unclassified, match="degree 2"):
        rep._split_idempotent(m, theta, q)


def test_identify_cannot_certify_a_residue_field_of_degree_4():
    """End = Q(2^(1/4)).  A squarefree minimal polynomial of degree 4
    with no rational root may still factor into quadratics, so the
    rational-root test cannot tell this field from a split End/rad."""
    with pytest.raises(NonSplitField, match="too large"):
        identify(_band([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, 1, 0]]))
