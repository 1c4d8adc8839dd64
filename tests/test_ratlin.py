"""Exact linear algebra layer."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring.errors import NoSolution
from greenring.ratlin import (ONE, Rat, RatMatrix, SpanRREF, ZERO,
                              _echelon, block_diag, in_row_space,
                              kernel_basis, kernel_dicts, kronecker_product,
                              minimal_polynomial, rat_from_str, rat_to_str,
                              rational_roots, solve_linear, span_basis,
                              span_coordinates, squarefree_part,
                              trace_product)


def mat(rows):
    return RatMatrix.from_rows([[Rat(x) for x in r] for r in rows])


def test_rat_string_roundtrip():
    for s in ("0", "1", "-3", "2/3", "-5/7"):
        assert rat_to_str(rat_from_str(s)) == s


def test_basic_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a * RatMatrix.identity(2) == a
    assert (a * b).to_rows() == [[Rat(2), Rat(1)], [Rat(4), Rat(3)]]
    assert a.transpose().transpose() == a
    assert a.trace() == Rat(5)


def test_rank_and_kernel():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert a.rank() == 2
    ker = kernel_basis(a)
    assert len(ker) == 1
    assert ker == [{0: Rat(-1), 1: Rat(-1), 2: ONE}]
    assert a.apply(ker[0]) == {}


def test_solve_linear():
    a = mat([[2, 0], [0, 3]])
    x, ker = solve_linear(a, {0: Rat(4), 1: Rat(9)})
    assert x == {0: Rat(2), 1: Rat(3)}
    assert ker == []
    with pytest.raises(NoSolution):
        solve_linear(mat([[1, 1], [1, 1]]), {1: Rat(1)})


def test_kronecker_and_blocks():
    a = mat([[1, 1], [0, 1]])
    b = mat([[2]])
    k = kronecker_product(a, b)
    assert k.rows == 2 and k[0, 0] == Rat(2)
    d = block_diag([a, b])
    assert d.rows == 3 and d[2, 2] == Rat(2) and d[2, 0] == ZERO


def test_span_rref_membership_and_rank():
    span = SpanRREF()
    assert span.add({0: ONE, 2: ONE})
    assert span.add({1: ONE, 2: ONE})
    assert not span.add({0: ONE, 1: ONE, 2: Rat(2)})
    assert not span.add({})
    assert span.rank == 2
    assert span.add({0: ONE})
    assert span.rank == 3


def test_span_basis_and_coordinates():
    vecs = [{0: ONE, 2: ONE}, {0: Rat(2), 1: ONE, 2: Rat(3)},
            {1: Rat(-1), 2: Rat(-1)}]
    basis = span_basis(vecs)
    assert basis == [{0: ONE, 2: ONE}, {1: ONE, 2: ONE}]
    incl = RatMatrix.from_columns(basis, 3)
    mat = RatMatrix.from_columns([{0: ONE, 1: ONE, 2: Rat(2)}, {}, vecs[1]],
                                 3)
    coords = span_coordinates(incl, mat)
    assert coords == RatMatrix.from_rows([[1, 0, 2], [1, 0, 1]])
    assert incl * coords == mat
    with pytest.raises(NoSolution):
        span_coordinates(incl, RatMatrix.from_columns([{0: ONE}], 3))


small_rats = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=9),
).map(lambda f: Rat(f.numerator, f.denominator))


@st.composite
def matrices(draw, n=3):
    rows = draw(st.lists(st.lists(small_rats, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return RatMatrix.from_rows(rows)


@settings(max_examples=40, deadline=None)
@given(matrices(), matrices())
def test_transpose_antihomomorphism(a, b):
    assert (a * b).transpose() == b.transpose() * a.transpose()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilated(a):
    for v in kernel_basis(a):
        assert a.apply(v) == {}
    assert a.rank() + len(kernel_basis(a)) == a.cols


@settings(max_examples=40, deadline=None)
@given(matrices(), st.lists(small_rats, min_size=3, max_size=3))
def test_solve_consistent_systems(a, x):
    b = a.apply(dict(enumerate(x)))
    x0, ker = solve_linear(a, b)
    assert a.apply(x0) == b


def test_minimal_polynomial_examples():
    # a Jordan block at 2 and an eigenvalue 3: (t - 2)^2 (t - 3)
    assert minimal_polynomial(mat([[2, 1, 0], [0, 2, 0], [0, 0, 3]])) == [
        -12, 16, -7, 1]
    assert minimal_polynomial(mat([[2, 0, 0], [0, 2, 0], [0, 0, 3]])) == [
        6, -5, 1]
    assert minimal_polynomial(RatMatrix.identity(3)) == [-1, 1]
    assert minimal_polynomial(RatMatrix.zeros(3, 3)) == [0, 1]


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_minimal_polynomial_is_the_first_relation(a):
    mu = minimal_polynomial(a)
    assert mu[-1] == 1
    value = RatMatrix.zeros(3, 3)
    for k, c in enumerate(mu):
        value = value + a.power(k).scale(c)
    assert value.is_zero()
    # no relation of lower degree: I, A, ..., A^(d-1) are independent
    flat = [[a.power(k)[i, j] for i in range(3) for j in range(3)]
            for k in range(len(mu) - 1)]
    assert RatMatrix.from_rows(flat).rank() == len(mu) - 1


def poly_mul(*polys):
    out = [ONE]
    for p in polys:
        acc = [ZERO] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                acc[i + j] += a * b
        out = acc
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rats, min_size=1, max_size=5), st.booleans())
def test_squarefree_part_and_rational_roots(roots, with_irreducible):
    """A product of linear factors (t - r), repeats allowed, and maybe of
    the irreducible t^2 + 2 and (2t)^3 - 3."""
    irreducible = [[Rat(2), ZERO, ONE], [Rat(-3), ZERO, ZERO, Rat(8)]]
    factors = [[-r, ONE] for r in roots]
    distinct = [[-r, ONE] for r in set(roots)]
    if with_irreducible:
        factors += irreducible + irreducible[:1]
        distinct += irreducible
    p = poly_mul(*factors)
    assert rational_roots(p) == sorted(set(roots))
    sf = squarefree_part(p)
    want = poly_mul(*distinct)
    assert len(sf) == len(want)
    assert [c * want[-1] for c in sf] == [c * sf[-1] for c in want]


def test_rational_roots_of_irreducibles():
    assert rational_roots([ONE, ZERO, ONE]) == []  # t^2 + 1
    assert rational_roots([Rat(-2), ZERO, ZERO, ONE]) == []  # t^3 - 2
    assert rational_roots([Rat(5)]) == []
    assert rational_roots([ZERO, ZERO, ONE]) == [0]  # t^2


@settings(max_examples=40, deadline=None)
@given(matrices(), matrices())
def test_trace_product_matches_product_trace(a, b):
    assert trace_product(a, b) == (a * b).trace()
    assert trace_product(a, RatMatrix.zeros(3, 3)) == ZERO


# -- the elimination core against a plain Gauss-Jordan reference ------


def reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction on dense rows: (pivot cols, RREF rows as
    sparse dicts), each row 1 at its pivot and 0 at the other pivots."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [v / m[k][c] for v in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[k])]
        pivots.append(c)
    return pivots, [{j: v for j, v in enumerate(m[i]) if v}
                    for i in range(len(pivots))]


def reference_kernel(pivots, rref, ncols):
    """One vector per free column, 1 there, minus the pivot rows' entries
    at the pivots."""
    return [{f: Fraction(1),
             **{c: -row[f] for c, row in zip(pivots, rref) if f in row}}
            for f in range(ncols) if f not in pivots]



@st.composite
def sparse_systems(draw):
    """(rows, ncols): up to 12 rows over up to 20 columns, each an integer
    combination of up to 8 sparse base rows, so the rank falls short and
    reduced rows hold several pivot columns."""
    ncols = draw(st.integers(min_value=1, max_value=20))
    entry = st.tuples(st.integers(min_value=0, max_value=ncols - 1),
                      small_rats)
    row = st.lists(entry, min_size=1, max_size=6).map(
        lambda entries: {k: v for k, v in entries if v})
    base = draw(st.lists(row, min_size=1, max_size=8))
    coeffs = st.lists(st.integers(min_value=-9, max_value=9),
                      min_size=len(base), max_size=len(base))
    rows = []
    for cs in draw(st.lists(coeffs, min_size=len(base), max_size=12)):
        combo = {}
        for c, r in zip(cs, base):
            for k, v in r.items():
                combo[k] = combo.get(k, ZERO) + c * v
        rows.append({k: v for k, v in combo.items() if v})
    return rows, ncols


def dense_rows(rows, ncols):
    return [[r.get(j, ZERO) for j in range(ncols)] for r in rows]


@st.composite
def forced_zero_systems(draw):
    """sparse_systems with one-entry rows mixed in, and rows that become
    one-entry rows once those columns are dropped, in a drawn order."""
    rows, ncols = draw(sparse_systems())
    col = st.integers(min_value=0, max_value=ncols - 1)
    nonzero = small_rats.filter(bool)
    units = draw(st.lists(col, max_size=4, unique=True))
    extra = [{c: draw(nonzero)} for c in units]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # one free entry plus entries at forced columns: the free column
        # is forced in the next round
        row = {c: draw(nonzero) for c in draw(st.lists(
            st.sampled_from(units), max_size=3))} if units else {}
        row[draw(col)] = draw(nonzero)
        extra.append(row)
    rows = rows + extra
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


def normalized(cols, int_rows):
    """_echelon's primitive integer rows divided by their pivot entries,
    after checking each is primitive and positive at its pivot."""
    out = []
    for c, row in zip(cols, int_rows):
        assert row[c] > 0 and gcd(*row.values()) == 1
        out.append({k: Fraction(v, row[c]) for k, v in row.items()})
    return out


def check_echelon_against_reference(rows, ncols):
    pivots, rref = reference_rref(rows, ncols)
    cols, int_rows = _echelon([dict(r) for r in rows])
    assert cols == pivots and normalized(cols, int_rows) == rref
    assert span_basis(rows) == rref
    assert _echelon([dict(r) for r in rows], reduced=False) == (pivots, None)
    assert kernel_dicts([dict(r) for r in rows], ncols) == \
        reference_kernel(pivots, rref, ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_echelon_matches_reference_rref(system):
    check_echelon_against_reference(*system)


@settings(max_examples=150, deadline=None)
@given(forced_zero_systems())
def test_echelon_with_forced_zeros_matches_reference(system):
    check_echelon_against_reference(*system)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_systems(), forced_zero_systems()), st.data())
def test_in_row_space_matches_reference_rank(system, data):
    rows, ncols = system
    if data.draw(st.booleans()):  # in the span: a combination of rows
        cs = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                                min_size=len(rows), max_size=len(rows)))
        vec = {}
        for c, r in zip(cs, rows):
            for k, v in r.items():
                vec[k] = vec.get(k, ZERO) + c * v
    else:
        entries = data.draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=ncols - 1), small_rats),
            max_size=4))
        vec = dict(entries)
    vec = {k: v for k, v in vec.items() if v}
    rank = len(reference_rref(rows, ncols)[0])
    expected = len(reference_rref(rows + [vec], ncols)[0]) == rank
    assert in_row_space([dict(r) for r in rows], vec, ncols) == expected
    assert in_row_space([dict(r) for r in rows], {}, ncols)
    assert in_row_space([], {}, ncols)
    assert in_row_space([], {}, 0)


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.data())
def test_solve_linear_matches_reference(system, data):
    rows, ncols = system
    a = RatMatrix.from_rows(dense_rows(rows, ncols))
    if data.draw(st.booleans()):  # consistent: b in the image of a
        b = a.apply(dict(enumerate(data.draw(
            st.lists(small_rats, min_size=ncols, max_size=ncols)))))
    else:
        b = {i: v for i, v in enumerate(data.draw(
            st.lists(small_rats, min_size=a.rows, max_size=a.rows))) if v}
    aug = [{**r, ncols: b[i]} if i in b else r for i, r in enumerate(rows)]
    pivots, rref = reference_rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        with pytest.raises(NoSolution):
            solve_linear(a, b)
        return
    x, ker = solve_linear(a, b)
    assert x == {c: row[ncols] for c, row in zip(pivots, rref)
                 if ncols in row}
    assert ker == kernel_basis(a)
    assert ker == reference_kernel(*reference_rref(rows, ncols), ncols)
