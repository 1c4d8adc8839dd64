"""Module operations: tensor, dual, hom, covers, decomposition."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring import rep
from greenring.errors import GreenRingError
from greenring.green import STANDARD_ETAS, green_mul_labels, green_mul_oracle
from greenring.hopf import build_dk1, build_km
from greenring.ideal import is_negligible
from greenring.indec import EtaPoint, IndecLabel, identify, realize
from greenring.ratlin import (ONE, Rat, RatMatrix, _echelon, _scaled,
                              kernel_basis, kernel_dicts, kronecker_product,
                              solve_linear, span_coordinates)
from greenring.verify import _k2_labels
from greenring.rep import (ModuleRep, check_module, decompose, direct_sum,
                           dual, hom_basis, injective_hull, is_isomorphic,
                           projective_cover, quotient_module, radical_vectors,
                           regular_module, socle_vectors, submodule, tensor,
                           trivial_module)

K2 = build_km(2)


def V(r):
    return realize(IndecLabel.simple(r), "K2")


def P(r):
    return realize(IndecLabel.proj(r), "K2")


def test_trivial_and_regular_are_modules():
    assert check_module(trivial_module(K2)).ok
    assert check_module(regular_module(K2)).ok


def test_check_module_catches_bad_action():
    bad = ModuleRep(K2, 1, {
        "K": RatMatrix.diagonal([Rat(2)]),
        "x1": RatMatrix.zeros(1, 1),
        "x2": RatMatrix.zeros(1, 1)})
    assert not check_module(bad).ok


def test_tensor_unit():
    for m in (P(0), V(1)):
        t = tensor(trivial_module(K2), m)
        ok, _ = is_isomorphic(t, m)
        assert ok


def test_tensor_dims_multiply():
    t = tensor(P(0), P(1))
    assert t.dim == 16
    assert check_module(t).ok


def test_dual_is_involution_up_to_iso():
    for m in (V(1), P(0), realize(IndecLabel.syz_pos(2, 1), "K2")):
        ok, _ = is_isomorphic(dual(dual(m)), m)
        assert ok


def test_hom_dimensions():
    assert len(hom_basis(P(0), P(0))) == 2
    assert len(hom_basis(P(0), P(1))) == 2
    assert len(hom_basis(V(0), V(1))) == 0
    assert len(hom_basis(V(0), V(0))) == 1


def test_hom_basis_intertwines():
    for t in hom_basis(P(0), P(1)):
        for lbl in ("K", "x1", "x2"):
            assert t * P(0).actions[lbl] == P(1).actions[lbl] * t


def test_radical_socle_of_projective():
    p = P(0)
    assert len(radical_vectors(p)) == 3
    assert len(socle_vectors(p)) == 1


def test_submodule_quotient_dims():
    p = P(0)
    rad = radical_vectors(p)
    sub, incl = submodule(p, rad)
    quo, proj = quotient_module(p, rad)
    assert sub.dim == 3 and quo.dim == 1
    assert check_module(sub).ok and check_module(quo).ok
    assert incl.rank() == 3 and proj.rank() == 1


def test_projective_cover_of_simple():
    cover, cov = projective_cover(V(0))
    ok, _ = is_isomorphic(cover, P(0))
    assert ok
    assert cov.rank() == 1


def test_injective_hull_embeds():
    m = realize(IndecLabel.syz_pos(1, 0), "K2")
    hull, emb = injective_hull(m)
    assert emb.rank() == m.dim
    for lbl in ("K", "x1", "x2"):
        assert emb * m.actions[lbl] == hull.actions[lbl] * emb


@pytest.mark.parametrize("summands, cover", [
    (["V(0)"], ["P(0)"]),
    (["V(1)"], ["P(1)"]),
    (["O(+1,0)"], ["P(1)", "P(1)"]),
    (["M(1,0,2/3)"], ["P(0)"]),
    (["St(0)"], ["St(0)"]),
    (["St(1)"], ["St(1)"]),
    (["St(0)", "V(1)"], ["P(1)", "St(0)"]),
    (["St(1)", "O(-1,0)", "St(0)"], ["P(0)", "St(0)", "St(1)"]),
])
def test_projective_cover_and_injective_hull_over_dk1(summands, cover):
    """Each route of the DK1 cover: bc = 1 goes through K2, a Steinberg
    module covers itself, and a mixed module is split by bc first; each
    in its realized basis and in a seeded basis change, which mixes the
    bc blocks of a mixed module."""
    m = direct_sum([realize(IndecLabel.parse(t), "DK1") for t in summands])
    changed = _basis_changed(m, random.Random(len(summands)))
    if 0 < sum(t.startswith("St") for t in summands) < len(summands):
        bc = changed.actions["b"] * changed.actions["c"]
        assert any(i != j for i, j in bc.int_form()[0]), "bc is diagonal"
    for m in (m, changed):
        p, cov = projective_cover(m)
        hull, emb = injective_hull(m)
        assert cov.rank() == m.dim and emb.rank() == m.dim
        for lbl in ("a", "b", "c", "d"):
            assert cov * p.actions[lbl] == m.actions[lbl] * cov
            assert emb * m.actions[lbl] == hull.actions[lbl] * emb
        assert identify(p) == [IndecLabel.parse(t) for t in cover]


def test_decompose_regular():
    parts = decompose(regular_module(K2))
    assert sorted(p.dim for p in parts) == [4, 4]
    tags = sorted("P0" if is_isomorphic(p, P(0))[0] else "P1"
                  for p in parts)
    assert tags == ["P0", "P1"]


def test_decompose_respects_known_sum():
    m = direct_sum([V(0), P(1), realize(IndecLabel.syz_neg(1, 1), "K2")])
    parts = decompose(m)
    assert sorted(p.dim for p in parts) == [1, 3, 4]


def test_decompose_dk1_regular():
    parts = decompose(regular_module(build_dk1()))
    assert sorted(p.dim for p in parts) == [2, 2, 2, 2, 4, 4]


def test_is_isomorphic_negative():
    assert not is_isomorphic(P(0), P(1))[0]
    assert not is_isomorphic(V(0), V(1))[0]


def test_is_isomorphic_witness_invertible():
    ok, t = is_isomorphic(dual(P(0)), P(0))
    assert ok and t.rank() == 4


LABELS = [IndecLabel.simple(0), IndecLabel.simple(1), IndecLabel.proj(0),
          IndecLabel.syz_pos(1, 0), IndecLabel.syz_neg(1, 1),
          IndecLabel.mtype(1, 0, EtaPoint.finite(2, 3)),
          IndecLabel.mtype(2, 1, EtaPoint.infinity())]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
def test_decompose_inverts_direct_sum(labels):
    m = direct_sum([realize(l, "K2") for l in labels])
    parts = decompose(m)
    assert sorted(p.dim for p in parts) == sorted(l.dim() for l in labels)
    for lbl in labels:
        assert any(is_isomorphic(p, realize(lbl, "K2"))[0] for p in parts)


def _k2_module(k):
    zero = RatMatrix.zeros(len(k), len(k))
    return ModuleRep(K2, len(k), {"K": RatMatrix.from_rows(k),
                                  "x1": zero, "x2": zero})


def test_k_eigenbasis_keeps_a_diagonal_k():
    for m in [realize(l, "K2") for l in LABELS] + [
            tensor(P(0), V(1)), rep.principal_projective(build_km(3), 1)[0]]:
        assert rep._k_eigenbasis(m) is m


def test_k_eigenbasis_diagonalizes_k():
    m = _k2_module([[1, 1], [0, -1]])
    e = rep._k_eigenbasis(m)
    assert check_module(e).ok
    assert e.actions["K"] == RatMatrix.diagonal([1, -1])
    # the witness P = [ker(K - I) | ker(K + I)] is invertible, A P = P A'
    k, ident = m.actions["K"], RatMatrix.identity(m.dim)
    p = RatMatrix.from_columns(kernel_basis(k - ident)
                               + kernel_basis(k + ident), rows=m.dim)
    assert p.rank() == m.dim
    for lbl, a in m.actions.items():
        assert a * p == p * e.actions[lbl]


def test_non_involutive_k_is_an_error():
    m = _k2_module([[2, 0], [1, 1]])
    assert not check_module(m).ok
    with pytest.raises(GreenRingError, match="involution"):
        identify(m)


# -- the projective peel in a K-eigenbasis ----------------------------


def _basis_changed(m, rng):
    """M with actions g A g^-1 for g a seeded product of elementary
    matrices I + c E_ij, so its K is no longer diagonal."""
    n = m.dim
    ident = RatMatrix.identity(n)
    g, g_inv = ident, ident
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        g = g * RatMatrix(n, n, {**ident.data, (i, j): Rat(c)})
        g_inv = RatMatrix(n, n, {**ident.data, (i, j): Rat(-c)}) * g_inv
    return ModuleRep(m.algebra, n, {lbl: g * a * g_inv
                                    for lbl, a in m.actions.items()})


def _fusion_pairs_by_dim():
    """The 1600 ordered pairs of the fusion sweep's two label lists,
    sorted by dimension: both lists hold V(0), P(0), V(1) and P(1), so
    304 pairs repeat one of the 1296 distinct products."""
    sweep = _k2_labels(4, 0, []) + _k2_labels(0, 4, STANDARD_ETAS[3:5])
    return sorted(((a, b) for a in sweep for b in sweep),
                  key=lambda ab: ab[0].dim() * ab[1].dim())


def test_peel_splits_off_the_closed_form_projectives():
    """A stratified sample of the fusion sweep, each product in a
    scrambled basis and then moved to its K-eigenbasis: the peel returns
    the closed form's P(0)s and P(1)s, and a remainder of the rest."""
    pairs = _fusion_pairs_by_dim()
    rng = random.Random(7)
    for a, b in pairs[::12]:
        m = tensor(realize(a, "K2"), realize(b, "K2"))
        e = rep._k_eigenbasis(_basis_changed(m, rng))
        assert all(i == j for i, j in e.actions["K"].int_form()[0])
        projs, rest = rep._peel_projectives(e)
        closed = green_mul_labels(a, b).coeffs
        for r in (0, 1):
            assert sum(p is P(r) for p in projs) == closed.get(
                IndecLabel.proj(r), 0), (a, b, r)
        assert len(projs) == sum(c for l, c in closed.items()
                                 if l.kind == "P")
        assert rest.dim == m.dim - 4 * len(projs)
        assert check_module(rest).ok


def test_peel_needs_a_diagonal_k():
    m = _basis_changed(tensor(P(0), V(1)), random.Random(3))
    assert any(i != j for i, j in m.actions["K"].int_form()[0])
    with pytest.raises(GreenRingError, match="diagonal K"):
        rep._peel_projectives(m)
    # decompose moves M to a K-eigenbasis first, so it peels the same P
    parts = decompose(m)
    assert len(parts) == 1 and is_isomorphic(parts[0], P(1))[0]


# -- the graded hom system against the ungraded one -------------------


def ungraded_hom_rows(m, n):
    """Every intertwining constraint T rho_M(g) = rho_N(g) T, one integer
    row per (generator, target row i, source column b), over all
    dim M * dim N unknowns: the system with no generator read as a
    grading.  Unknown i * dim M + j is T[i, j]."""
    dm, dn = m.dim, n.dim
    rows = {}
    for lbl, _ in m.algebra.generators:
        am, da = m.actions[lbl].int_form()
        an, dan = n.actions[lbl].int_form()
        den = lcm(da, dan)
        for (j, b), v in am.items():
            for i in range(dn):
                r = rows.setdefault((lbl, i, b), {})
                r[i * dm + j] = r.get(i * dm + j, 0) + v * (den // da)
        for (i, k), v in an.items():
            for b in range(dm):
                r = rows.setdefault((lbl, i, b), {})
                r[k * dm + b] = r.get(k * dm + b, 0) - v * (den // dan)
    return [{u: v for u, v in r.items() if v} for r in rows.values()]


def reference_hom_basis(m, n):
    dm, dn = m.dim, n.dim
    return [RatMatrix(dn, dm, {divmod(u, dm): v for u, v in vec.items()})
            for vec in kernel_dicts(ungraded_hom_rows(m, n), dm * dn)]


def expected_live(m, n):
    """The sum over eigenvalue classes of dim_N(class) * dim_M(class), for
    the generators that act diagonally on both modules."""
    grading = [lbl for lbl, _ in m.algebra.generators
               if all(i == j for x in (m, n) for i, j in x.actions[lbl].data)]

    def classes(x):
        return Counter(tuple(x.actions[g][i, i] for g in grading)
                       for i in range(x.dim))

    cm, cn = classes(m), classes(n)
    return sum(cn[key] * cm[key] for key in cm)


def _graded_pairs():
    rng = random.Random(11)
    k2 = [realize(IndecLabel.parse(t), "K2") for t in (
        "V(0)", "V(1)", "P(0)", "P(1)", "O(+1,0)", "O(-2,1)", "M(1,0,2/3)",
        "M(2,1,inf)")]
    products = [tensor(k2[4], realize(IndecLabel.syz_neg(1, 1), "K2")),
                tensor(k2[6], realize(IndecLabel.syz_pos(2, 0), "K2")),
                tensor(k2[2], k2[1])]
    k2 += products
    dk1 = [realize(IndecLabel.parse(t), "DK1") for t in (
        "St(0)", "St(1)", "V(1)", "P(0)", "O(+1,0)", "M(1,0,0)")]
    dk1.append(tensor(dk1[4], dk1[1]))
    scrambled = [_basis_changed(x, rng) for x in (k2[4], products[0])]
    # not modules, but hom_rows reads any actions: diagonal Ks that share
    # the eigenvalue 1/2, stored as 1 over den 2 and as 3 over den 6
    half, third = Rat(1, 2), Rat(1, 3)
    fractional = [_k2_module([[half, 0, 0], [0, 1, 0], [0, 0, half]]),
                  _k2_module([[third, 0], [0, half]])]
    return ([(a, b) for a in k2 for b in k2]
            + [(a, b) for a in fractional for b in fractional]
            + [(a, b) for a in dk1 for b in dk1]
            + [(x, x) for x in scrambled]
            + [(k2[4], scrambled[0]), (scrambled[0], k2[4]),
               (products[0], scrambled[1])])


def test_hom_basis_equals_the_ungraded_kernel():
    """The graded system has the ungraded one's kernel in the same normal
    form, on realized K2 and DK1 modules, their tensor products, scrambled
    modules with a non-diagonal K, and mixed pairs of the two."""
    pruned = 0
    for m, n in _graded_pairs():
        live = rep.hom_rows(m, n)[1]
        assert len(live) == expected_live(m, n)
        assert live == sorted(live)
        pruned += len(live) < m.dim * n.dim
        assert hom_basis(m, n) == reference_hom_basis(m, n), (m, n)
    assert pruned > 0


def test_a_non_diagonal_k_prunes_nothing():
    rng = random.Random(4)
    m = realize(IndecLabel.syz_pos(1, 0), "K2")
    for a, b in ((m, m), (m, tensor(m, m))):
        a, b = _basis_changed(a, rng), _basis_changed(b, rng)
        assert any(i != j for i, j in a.actions["K"].int_form()[0])
        assert rep.hom_rows(a, b)[1] == list(range(a.dim * b.dim))
        assert hom_basis(a, b) == reference_hom_basis(a, b)


# -- elimination never writes to a matrix's integer store -------------


def _snapshot(mats):
    return [(dict(m.int_form()[0]), m.int_form()[1], m.to_rows(),
             m.int_rows()) for m in mats]


def test_elimination_leaves_input_matrices_unchanged():
    """_echelon consumes its rows, so every caller hands it fresh dicts:
    after each call, and after a second identical call, the inputs' int
    forms, entries and int rows are what they were before."""
    a = RatMatrix.from_rows([[1, Rat(1, 2), 0], [2, 1, 0], [0, Rat(3, 4), 5]])
    incl = RatMatrix.from_columns([{0: 1, 2: 2}, {1: 1}], 3)
    mat = incl * RatMatrix.from_rows([[Rat(1, 3), 2], [0, Rat(-5, 2)]])
    m = _basis_changed(direct_sum([P(0), V(1), realize(
        IndecLabel.syz_pos(1, 0), "K2")]), random.Random(5))
    n = tensor(V(1), realize(IndecLabel.syz_neg(1, 1), "K2"))
    mods = list(m.actions.values()) + list(n.actions.values())
    calls = [
        (lambda: a.rank(), [a]),
        (lambda: kernel_basis(a), [a]),
        (lambda: solve_linear(a, a.apply({0: Rat(1, 3), 2: Rat(2)})), [a]),
        (lambda: span_coordinates(incl, mat), [incl, mat]),
        (lambda: [t.int_form() for t in hom_basis(m, n)], mods),
        (lambda: is_negligible(n), mods),
        (lambda: [len(s.actions) and s.dim for s in decompose(m)], mods),
    ]
    for call, mats in calls:
        before = _snapshot(mats)
        first = call()
        assert _snapshot(mats) == before
        assert call() == first
        assert _snapshot(mats) == before


# -- the integer producers against the Rat route ----------------------
#
# The Rat route builds each RatMatrix from Rat entries: kernel vectors and
# reduced basis vectors as Rat dicts, tensor actions as a sum of scaled
# Kronecker products.  Reduced echelon forms and kernel normal forms are
# unique, so the integer producers must return equal matrices.


def rat_kernel(pivot_cols, pivot_rows, cols):
    """Kernel normal form over cols from _echelon's pivot rows, as Rat
    dicts: 1 at the free column f, -row[f] / row[c] at each pivot c."""
    pivot_set = set(pivot_cols)
    kernel = {f: {f: ONE} for f in cols if f not in pivot_set}
    for c, row in zip(pivot_cols, pivot_rows):
        for f, w in row.items():
            if f in kernel:
                kernel[f][c] = Rat(-w, row[c])
    return list(kernel.values())


def rat_span_basis(vectors):
    """The reduced echelon basis of the span, as Rat dicts."""
    cols, rows = _echelon([_scaled(v)[0] for v in vectors])
    return [{k: Rat(v, r[c]) for k, v in r.items()}
            for c, r in zip(cols, rows)]


def rat_hom_basis(m, n):
    rows, live = rep.hom_rows(m, n)
    dm, dn = m.dim, n.dim
    return [RatMatrix(dn, dm, {divmod(u, dm): v for u, v in vec.items()})
            for vec in rat_kernel(*_echelon(rows), live)]


def rat_submodule(m, vectors):
    basis = rat_span_basis(vectors)
    incl = RatMatrix.from_columns(basis, m.dim)
    actions = {lbl: span_coordinates(incl, m.actions[lbl] * incl)
               for lbl, _ in m.algebra.generators}
    return ModuleRep(m.algebra, len(basis), actions), incl


def rat_quotient_module(m, vectors):
    basis = rat_span_basis(vectors)
    pivots = {min(b) for b in basis}
    free = [j for j in range(m.dim) if j not in pivots]
    pos = {j: k for k, j in enumerate(free)}
    data = {(k, j): ONE for k, j in enumerate(free)}
    for b in basis:
        c = min(b)
        for j, v in b.items():
            if j != c:
                data[(pos[j], c)] = -v
    proj = RatMatrix(len(free), m.dim, data)
    actions = {}
    for lbl, _ in m.algebra.generators:
        image = proj * m.actions[lbl]
        actions[lbl] = RatMatrix(len(free), len(free), {
            (i, pos[j]): v for (i, j), v in image.data.items() if j in pos})
    return ModuleRep(m.algebra, len(free), actions), proj


def rat_tensor(m, n):
    a = m.algebra
    actions = {}
    for g, (lbl, _) in enumerate(a.generators):
        acc = RatMatrix.zeros(m.dim * n.dim, m.dim * n.dim)
        for (p, q), c in a.comult[a.index[(g,)]].items():
            acc = acc + kronecker_product(m.word_action(p),
                                          n.word_action(q)).scale(c)
        actions[lbl] = acc
    return ModuleRep(a, m.dim * n.dim, actions)


def rat_k_eigenbasis(m):
    k_act = m.actions["K"]
    ident = RatMatrix.identity(m.dim)
    plus, minus = kernel_basis(k_act - ident), kernel_basis(k_act + ident)
    rows = []
    for half, vecs in zip(rep._k_halves(k_act), (plus, minus)):
        half_rows = half.row_dicts()
        rows += [half_rows[max(vec)] for vec in vecs]
    p_inv = RatMatrix(m.dim, m.dim, {(i, j): v for i, row in enumerate(rows)
                                     for j, v in row.items()})
    p = RatMatrix.from_columns(plus + minus, m.dim)
    return ModuleRep(m.algebra, m.dim, {lbl: p_inv * a * p
                                        for lbl, a in m.actions.items()})


def assert_canonical(m):
    """m holds no zero entry, and rebuilding it from its Rat entries gives
    the same store: its (ints, den) is the canonical form."""
    ints, den = m.int_form()
    assert all(ints.values()) and den > 0
    again = RatMatrix(m.rows, m.cols, dict(m.data))
    assert m == again and m.int_form() == again.int_form()


def assert_same_module(got, want):
    sub, incl = got
    ref_sub, ref_incl = want
    assert sub.dim == ref_sub.dim and sub.actions == ref_sub.actions
    assert incl == ref_incl
    for x in (incl, *sub.actions.values()):
        assert_canonical(x)


def _rescaled(m):
    """M with actions g A g^-1 for g = diag(1, 2, ..., dim): the same
    module with fractional actions, so its hom systems have pivot
    entries other than 1."""
    g = RatMatrix.diagonal([Rat(i + 1) for i in range(m.dim)])
    g_inv = RatMatrix.diagonal([Rat(1, i + 1) for i in range(m.dim)])
    return ModuleRep(m.algebra, m.dim, {lbl: g * a * g_inv
                                        for lbl, a in m.actions.items()})


def _producer_inputs():
    """Realized K2 labels at eta 2/3, 5/7 and inf, tensor products,
    unimodular scrambles with a non-diagonal K, a rescaled module with
    fractional actions, and DK1 modules."""
    rng = random.Random(13)
    k2 = [realize(IndecLabel.parse(t), "K2") for t in (
        "V(1)", "P(0)", "O(+1,0)", "O(-2,1)", "M(1,0,2/3)", "M(2,1,5/7)",
        "M(2,0,inf)")]
    products = [tensor(k2[2], k2[4]), tensor(k2[5], k2[6]),
                tensor(k2[3], k2[0])]
    scrambled = [_basis_changed(x, rng) for x in (k2[2], k2[5], products[0])]
    scrambled.append(_basis_changed(_rescaled(k2[3]), rng))
    dk1 = [realize(IndecLabel.parse(t), "DK1") for t in (
        "St(0)", "V(1)", "O(+1,0)", "M(1,0,0)")]
    dk1.append(tensor(dk1[2], dk1[0]))
    return k2 + products + scrambled + [_rescaled(k2[5])], dk1, scrambled


def _spanning_sets(m):
    """Vectors that span submodules of M: rad M as integer rows, soc M as
    Rat dicts, no vector, and Rat vectors that span all of M."""
    every = [{j: Rat(j + 1, 3) for j in range(m.dim) if j >= i}
             for i in range(m.dim)]
    return [radical_vectors(m), socle_vectors(m), [], every]


def test_hom_basis_equals_the_rat_route():
    k2, dk1, _ = _producer_inputs()
    for mods in (k2, dk1):
        for m in mods:
            for n in mods:
                got = hom_basis(m, n)
                assert got == rat_hom_basis(m, n), (m, n)
                for t in got:
                    assert_canonical(t)


def test_submodule_and_quotient_equal_the_rat_route():
    k2, dk1, _ = _producer_inputs()
    for m in k2 + dk1:
        for vectors in _spanning_sets(m):
            assert_same_module(submodule(m, vectors),
                               rat_submodule(m, vectors))
            # quotient_module consumes integer vectors: hand it a copy
            assert_same_module(quotient_module(m, [_scaled(v)[0]
                                                   for v in vectors]),
                               rat_quotient_module(m, vectors))
        # the stable kernel of an endomorphism, from integer kernel vectors
        for theta in hom_basis(m, m)[-2:]:
            n = theta.power(m.dim)
            for vectors in (kernel_basis(n), n.transpose().int_rows()):
                assert_same_module(submodule(m, vectors),
                                   rat_submodule(m, vectors))


def test_tensor_equals_the_rat_route():
    k2, dk1, _ = _producer_inputs()
    for mods in (k2, dk1):
        for m in mods:
            for n in mods:
                if m.dim * n.dim <= 64:
                    got, want = tensor(m, n), rat_tensor(m, n)
                    assert got.dim == want.dim
                    assert got.actions == want.actions
                    for a in got.actions.values():
                        assert_canonical(a)


def test_k_eigenbasis_equals_the_rat_route():
    _, _, scrambled = _producer_inputs()
    rng = random.Random(17)
    scrambled += [_basis_changed(tensor(P(1), V(0)), rng),
                  _basis_changed(direct_sum([V(0), V(1), P(0)]), rng)]
    for m in scrambled:
        assert any(i != j for i, j in m.actions["K"].int_form()[0])
        got = rep._k_eigenbasis(m)
        assert got.actions == rat_k_eigenbasis(m).actions
        for a in got.actions.values():
            assert_canonical(a)


# Fraction constructions over the same 100 oracle pairs, with every cache
# warm: 7295 when hom bases, spans and tensor actions went through Rat
# dicts, 958 once they are built from integers.  The count does not move
# with the host's clock, as a timing would.
FRACTION_BOUND = 958


def test_oracle_fraction_count_stays_within_bound(monkeypatch):
    pairs = _fusion_pairs_by_dim()[::16]
    assert len(pairs) == 100
    want = [green_mul_labels(a, b) for a, b in pairs]
    assert [green_mul_oracle(a, b) for a, b in pairs] == want  # warm caches
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = [green_mul_oracle(a, b) for a, b in pairs]
    monkeypatch.undo()
    assert got == want
    assert len(made) <= FRACTION_BOUND
