"""Exact linear algebra layer."""

import copy
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring.errors import NoSolution
from greenring.ratlin import (ONE, Rat, RatMatrix, SpanRREF, ZERO,
                              _echelon, _forced_zeros, _int_columns,
                              block_diag,
                              in_row_space, kernel_basis, kernel_dicts,
                              kronecker_product, minimal_polynomial,
                              rat_from_str, rat_to_str, rational_roots,
                              solve_linear, span_coordinates,
                              squarefree_part, trace_form_radical,
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
    """The reduced echelon basis of a span, as the columns _int_columns
    builds from _echelon's pivot rows, and coordinates in it."""
    vecs = [{0: 1, 2: 1}, {0: 2, 1: 1, 2: 3}, {1: -1, 2: -1}]
    cols, rows = _echelon([dict(v) for v in vecs])  # it consumes rows
    incl = _int_columns(3, [(r, r[c]) for c, r in zip(cols, rows)])
    assert incl == RatMatrix.from_columns([{0: ONE, 2: ONE},
                                           {1: ONE, 2: ONE}], 3)
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


def rat_trace_form_radical(mats):
    """The Rat route: the Gram matrix of Rat traces tr(mats[i] mats[j]),
    then kernel_basis."""
    n = len(mats)
    return kernel_basis(RatMatrix(n, n, {
        (i, j): trace_product(a, b) for i, a in enumerate(mats)
        for j, b in enumerate(mats)}))


@settings(max_examples=60, deadline=None)
@given(st.lists(matrices(), max_size=3), small_rats, small_rats)
def test_trace_form_radical_matches_the_rat_gram(mats, x, y):
    """Integer Gram rows scaled row by row have the Rat Gram matrix's
    kernel in the same normal form; a nilpotent N and N/3 make the
    radical nonzero."""
    nil = RatMatrix.from_rows([[0, x, y], [0, 0, Rat(1, 2)], [0, 0, 0]])
    mats = [RatMatrix.identity(3), nil, nil.scale(Rat(1, 3))] + mats
    rad = trace_form_radical(mats)
    assert rad == rat_trace_form_radical(mats)
    assert rad and all(type(v) is Rat and v for r in rad for v in r.values())


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


def test_rational_roots_of_large_coefficients():
    """The search takes a number of steps that grows with the bits of the
    coefficients: the divisors of 2^61 - 1, a prime, are never listed."""
    big = Rat(2 ** 61 - 1)
    p = poly_mul([-big, Rat(3 ** 40)], [big, ZERO, ONE], [ZERO, ONE])
    assert rational_roots(p) == [0, big / 3 ** 40]
    assert rational_roots(poly_mul(p, p, [big, ONE])) == [-big, 0,
                                                          big / 3 ** 40]


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


def integer_rows(rows):
    """Each Rat row times the lcm of its denominators: fresh integer rows
    with the same row space and kernel, as _echelon takes them."""
    out = []
    for r in rows:
        den = lcm(*[Fraction(v).denominator for v in r.values()])
        out.append({k: int(v * den) for k, v in r.items()})
    return out


def dense_rows(rows, ncols):
    return [[r.get(j, ZERO) for j in range(ncols)] for r in rows]


@st.composite
def forced_zero_systems(draw):
    """sparse_systems with one-entry rows mixed in, rows that become
    one-entry rows once those columns are dropped, a propagation chain
    {c0}, {c0, c1}, {c1, c2}, ... of depth 3 or more (when there are 3
    columns), and a row over two chain columns, which the chain empties;
    all in a drawn order."""
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
    chain = draw(st.lists(col, min_size=min(3, ncols), max_size=6,
                          unique=True))
    extra.append({chain[0]: draw(nonzero)})
    extra += [{a: draw(nonzero), b: draw(nonzero)}
              for a, b in zip(chain, chain[1:])]
    if len(chain) > 2:
        extra.append({chain[-1]: draw(nonzero), chain[1]: draw(nonzero)})
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
    cols, int_rows = _echelon(integer_rows(rows))
    assert cols == pivots and normalized(cols, int_rows) == rref
    basis = _int_columns(ncols, [(r, r[c]) for c, r in zip(cols, int_rows)])
    assert_canonical(basis)
    assert basis == RatMatrix.from_columns(rref, ncols)
    assert _echelon(integer_rows(rows), reduced=False) == (pivots, None)
    assert kernel_dicts(integer_rows(rows), ncols) == \
        reference_kernel(pivots, rref, ncols)


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_echelon_matches_reference_rref(system):
    check_echelon_against_reference(*system)


@settings(max_examples=150, deadline=None)
@given(forced_zero_systems())
def test_echelon_with_forced_zeros_matches_reference(system):
    check_echelon_against_reference(*system)


def round_based_forced_zeros(rows, pivots):
    """The forced-zero pass as rounds: each round forces the columns of all
    one-entry rows and rebuilds the row list without them.  Returns (rows,
    number of rounds that forced a column)."""
    rows = [r for r in rows if r]
    rounds = 0
    while True:
        forced = {c for r in rows if len(r) == 1 for c in r}
        if not forced:
            return rows, rounds
        rounds += 1
        for c in forced:
            pivots[c] = {c: 1}
        rows = [r if r.keys().isdisjoint(forced)
                else {c: v for c, v in r.items() if c not in forced}
                for r in rows]
        rows = [r for r in rows if r]


def check_forced_zeros(rows):
    """_forced_zeros leaves the rows, their order, the order of their
    entries and the forced pivots of the round-based reference; returns
    the reference's number of rounds."""
    want_pivots, got_pivots = {}, {}
    want, rounds = round_based_forced_zeros(copy.deepcopy(rows), want_pivots)
    got = _forced_zeros(rows, got_pivots)
    assert got == want and got_pivots == want_pivots
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
    return rounds


@settings(max_examples=150, deadline=None)
@given(st.one_of(forced_zero_systems(), sparse_systems().map(
    lambda system: ([r for r in system[0] if len(r) != 1], system[1]))))
def test_forced_zeros_match_the_round_based_reference(system):
    """Forced-zero systems with chains, and systems with no one-entry row,
    which _forced_zeros returns as they are."""
    rows = integer_rows(system[0])
    none_forced = all(len(r) != 1 for r in rows)
    assert (check_forced_zeros(rows) == 0) == none_forced


def test_forced_zeros_follow_a_deep_chain():
    """A chain forces one column per round, four rounds deep, and empties
    its rows and the row {0, 1, 2} on the way; the rows {4, 5} and {5, 6}
    keep their entries."""
    rows = [{4: 1, 5: 2}, {2: 3, 3: -1}, {0: 1, 1: 2, 2: 5}, {0: 2, 1: 1},
            {1: -1, 2: 7}, {0: 4}, {5: 1, 6: 1}]
    assert check_forced_zeros(copy.deepcopy(rows)) == 4
    pivots = {}
    assert _forced_zeros(rows, pivots) == [{4: 1, 5: 2}, {5: 1, 6: 1}]
    assert pivots == {c: {c: 1} for c in range(4)}


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
    (int_vec,) = integer_rows([vec])
    assert in_row_space(integer_rows(rows), int_vec, ncols) == expected
    assert in_row_space(integer_rows(rows), {}, ncols)
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


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_systems(), forced_zero_systems()))
def test_span_rref_grows_exactly_where_echelon_gains_a_pivot(system):
    """SpanRREF.add runs _echelon's forward step: adding the k-th vector
    grows the span exactly when _echelon of the first k vectors has more
    pivots than _echelon of the first k - 1."""
    rows, _ = system
    span, rank = SpanRREF(), 0
    for k, vec in enumerate(rows, 1):
        grew = span.add(vec)
        prefix = len(_echelon(integer_rows(rows[:k]), reduced=False)[0])
        assert grew == (prefix > rank)
        rank = prefix
        assert span.rank == rank


# -- the integer store against a dense Fraction reference -------------


def assert_canonical(m):
    """(ints, den) holds no zero ints, lies inside the shape, and den is
    the least common denominator of the entries."""
    ints, den = m.int_form()
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in ints.values())
    assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in ints)
    assert den == lcm(*[Fraction(v, den).denominator for v in ints.values()])


def assert_dense(m, ref):
    """m is canonical and equals the dense Fraction grid ref, read through
    data, to_rows and __getitem__, each giving Rat values."""
    assert_canonical(m)
    assert (m.rows, m.cols) == (len(ref), len(ref[0]) if ref else m.cols)
    rows = m.to_rows()
    assert rows == ref
    assert all(type(v) is Rat for row in rows for v in row)
    assert all(type(m[i, j]) is Rat and m[i, j] == ref[i][j]
               for i in range(m.rows) for j in range(m.cols))
    assert dict(m.data) == {(i, j): v for i, row in enumerate(ref)
                            for j, v in enumerate(row) if v}
    assert all(type(v) is Rat for v in m.data.values())


sparse_rats = st.one_of(st.just(ZERO), st.just(ZERO), small_rats)


def grids(rows, cols):
    return st.lists(st.lists(sparse_rats, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def from_grid(grid, cols):
    return RatMatrix(len(grid), cols, {(i, j): v for i, row in enumerate(grid)
                                       for j, v in enumerate(row)})


def ref_mul(a, b, inner):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ZERO)
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_store_matches_dense_reference(data):
    r, k, c = (data.draw(st.integers(min_value=1, max_value=3))
               for _ in range(3))
    ga, gc = data.draw(grids(r, k)), data.draw(grids(r, k))
    gb = data.draw(grids(k, c))
    a, other, b = from_grid(ga, k), from_grid(gc, k), from_grid(gb, c)
    for m, g in ((a, ga), (other, gc), (b, gb)):
        assert_dense(m, g)
        assert m == RatMatrix.from_rows(g) and m.is_zero() == (not any(
            any(row) for row in g))
    assert_dense(a + other, [[x + y for x, y in zip(p, q)]
                             for p, q in zip(ga, gc)])
    assert_dense(a - other, [[x - y for x, y in zip(p, q)]
                             for p, q in zip(ga, gc)])
    assert_dense(-a, [[-x for x in row] for row in ga])
    assert_dense(a * b, ref_mul(ga, gb, k))
    assert_dense(a.transpose(), [list(col) for col in zip(*ga)])
    assert_dense(a.hstack(other), [p + q for p, q in zip(ga, gc)])
    assert_dense(block_diag([a, b]),
                 [row + [ZERO] * c for row in ga]
                 + [[ZERO] * k + row for row in gb])
    assert_dense(kronecker_product(a, b),
                 [[ga[i][j] * gb[p][q] for j in range(k) for q in range(c)]
                  for i in range(r) for p in range(k)])
    for s in (ZERO, ONE, Rat(-3, 7), data.draw(small_rats)):
        assert_dense(a.scale(s), [[s * x for x in row] for row in ga])
    vec = {j: v for j, v in enumerate(data.draw(grids(1, k))[0]) if v}
    out = a.apply(vec)
    assert all(type(v) is Rat and v for v in out.values())
    assert out == {i: v for i, v in enumerate(
        sum((row[j] * x for j, x in vec.items()), ZERO) for row in ga) if v}
    gs = data.draw(grids(k, k))
    sq = from_grid(gs, k)
    assert type(sq.trace()) is Rat
    assert sq.trace() == sum((gs[i][i] for i in range(k)), ZERO)
    power = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    for n in range(5):
        assert_dense(sq.power(n), power)
        power = ref_mul(power, gs, k)
    rank = len(reference_rref([dict(enumerate(row)) for row in ga], k)[0])
    assert a.rank() == rank


@settings(max_examples=60, deadline=None)
@given(grids(3, 3), grids(3, 3), small_rats.filter(bool))
def test_equal_matrices_hash_equal(ga, gc, s):
    """Arithmetic lands on the same canonical form as from_rows, so equal
    matrices hash equal however they were made."""
    a, c = RatMatrix.from_rows(ga), RatMatrix.from_rows(gc)
    first_three = RatMatrix(6, 3, {(i, i): 1 for i in range(3)})
    for b in ((a + c) - c, a.scale(s).scale(1 / s), a * RatMatrix.identity(3),
              a.transpose().transpose(), -(-a), a.hstack(c) * first_three):
        assert_canonical(b)
        assert b == a and hash(b) == hash(a)
        assert b.int_form() == a.int_form()
    z = a - a
    assert z.is_zero() and z == RatMatrix.zeros(3, 3)
    assert z.int_form() == ({}, 1) and hash(z) == hash(RatMatrix.zeros(3, 3))
