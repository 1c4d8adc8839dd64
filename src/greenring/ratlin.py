"""Exact rational scalars and matrices.

Everything downstream (Hopf structure constants, module actions, hom
spaces) runs on this module, so arithmetic is exact: scalars are
`fractions.Fraction` rationals and all elimination uses deterministic
pivoting -- first nonzero entry in row-major scan -- so kernel bases and
normal forms are reproducible.

A matrix is stored as sparse integers over one common denominator,
because module action matrices are mostly zeros and integer arithmetic
is far cheaper than rational arithmetic; the public contract is the
dense one: a rows x cols grid of rationals, made only where a caller
reads entries.  Vectors are sparse dicts index -> nonzero Rat, and the
elimination core takes integer rows.

Integers run end to end: the elimination core returns primitive integer
pivot rows, and kernel vectors as integers over their own denominators;
every RatMatrix built from them (hom bases, inclusions, projections,
tensor actions) is made from integers over one denominator by
_normalized.  Rats are made only at the edges: where a caller reads
entries (__getitem__, to_rows, row_dicts, data), in scalar results
(trace, trace_product), in the vectors of kernel_dicts, kernel_basis and
solve_linear (one division per entry), in RatMatrix.apply, and in the
polynomial routines.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType

from .errors import NoSolution

from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat_from_str(s):
    """Parse "p/q" or "p"."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Rat(int(p), int(q))
    return Rat(int(s))


def rat_to_str(x):
    """Serialize as "p/q", or "p" when the denominator is 1."""
    x = Rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class RatMatrix:
    """Dense-contract exact rational matrix, stored as integers over one
    denominator.

    The store is int_form() = (ints, den): ints maps (i, j) -> nonzero int,
    entry (i, j) is ints[i, j] / den, and den is the least common
    denominator of the entries.  That form is canonical, so __eq__ and
    __hash__ compare it.  All arithmetic runs on the integers; Rats are
    made only where a caller reads entries: __getitem__, to_rows,
    row_dicts, col_dicts and `data`, a read-only view (i, j) -> nonzero
    Rat built from the integers on each access.  Treat instances as
    immutable.
    """

    __slots__ = ("rows", "cols", "_ints", "_den")

    def __init__(self, rows, cols, data=None):
        """rows x cols matrix with entries data[(i, j)], Rats or ints; zero
        entries are dropped."""
        self.rows = rows
        self.cols = cols
        self._ints, self._den = _scaled(
            {k: v for k, v in data.items() if v} if data else {})

    def int_form(self):
        """(ints, den), the store; callers must not modify ints."""
        return self._ints, self._den

    def int_rows(self):
        """The rows of den * self as fresh integer dicts col -> value: the
        same row space and kernel, and free for _echelon to consume."""
        rows = [{} for _ in range(self.rows)]
        for (i, j), v in self._ints.items():
            rows[i][j] = v
        return rows

    @property
    def data(self):
        return MappingProxyType(_rats(self._ints, self._den))

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list):
        nr = len(rows_list)
        nc = len(rows_list[0]) if nr else 0
        if any(len(row) != nc for row in rows_list):
            raise ValueError("ragged rows")
        return cls(nr, nc, {(i, j): v for i, row in enumerate(rows_list)
                            for j, v in enumerate(row)})

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return _normalized(n, n, {(i, i): 1 for i in range(n)}, 1)

    @classmethod
    def diagonal(cls, entries):
        return cls(len(entries), len(entries), {(i, i): v for i, v
                                                in enumerate(entries)})

    @classmethod
    def from_columns(cls, columns, rows):
        """rows x len(columns) matrix whose j-th column is the sparse
        vector columns[j]."""
        return cls(rows, len(columns), {(i, j): v
                                        for j, col in enumerate(columns)
                                        for i, v in col.items()})

    # -- access ------------------------------------------------------

    def __getitem__(self, ij):
        v = self._ints.get(ij)
        return Rat(v, self._den) if v else ZERO

    def to_rows(self):
        return [[self[i, j] for j in range(self.cols)]
                for i in range(self.rows)]

    def row_dicts(self):
        return [_rats(r, self._den) for r in self.int_rows()]

    def col_dicts(self):
        return self.transpose().row_dicts()

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self._den,
                     frozenset(self._ints.items())))

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return _placed(self.rows, self.cols, [(self, 0, 0), (other, 0, 0)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _normalized(self.rows, self.cols,
                           {k: -v for k, v in self._ints.items()}, self._den)

    def scale(self, c):
        p, q = c.numerator, c.denominator  # c is a Rat or an int
        if p == q:
            return self
        return _normalized(self.rows, self.cols,
                           {k: p * v for k, v in self._ints.items()},
                           q * self._den)

    def __mul__(self, other):
        """Matrix product (or scalar multiple for non-matrix operands)."""
        if not isinstance(other, RatMatrix):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        rows_b = other.int_rows()
        acc = {}
        for (i, k), v in self._ints.items():
            for j, w in rows_b[k].items():
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return _normalized(self.rows, other.cols, acc,
                           self._den * other._den)

    __rmul__ = scale

    def apply(self, vec):
        """Matrix-vector product of sparse vectors (dicts index -> Rat)."""
        x, den = _scaled(vec)
        out = {}
        for (i, j), v in self._ints.items():
            w = x.get(j)
            if w:
                out[i] = out.get(i, 0) + v * w
        den *= self._den
        return {i: Rat(v, den) for i, v in out.items() if v}

    def transpose(self):
        return _normalized(self.cols, self.rows, {
            (j, i): v for (i, j), v in self._ints.items()}, self._den)

    def trace(self):
        return Rat(sum(v for (i, j), v in self._ints.items() if i == j),
                   self._den)

    def is_zero(self):
        return not self._ints

    def power(self, n):
        assert self.rows == self.cols
        result, base = RatMatrix.identity(self.rows), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def rank(self):
        return len(_echelon(self.int_rows(), reduced=False)[0])

    def hstack(self, other):
        assert self.rows == other.rows
        return _placed(self.rows, self.cols + other.cols,
                       [(self, 0, 0), (other, 0, self.cols)])

    def __repr__(self):
        if self.rows * self.cols <= 64:
            body = "; ".join(" ".join(rat_to_str(v) for v in row)
                             for row in self.to_rows())
            return f"RatMatrix({self.rows}x{self.cols}: {body})"
        return f"RatMatrix({self.rows}x{self.cols}, nnz={len(self._ints)})"


def _normalized(rows, cols, ints, den):
    """The RatMatrix ints / den (den > 0) in canonical form: zero entries
    dropped and the gcd of den and the entries divided out.  ints is a
    fresh dict, which the matrix may keep as its store."""
    if 0 in ints.values():
        ints = {k: v for k, v in ints.items() if v}
    g = gcd(den, *ints.values())
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        den //= g
    m = object.__new__(RatMatrix)
    m.rows, m.cols, m._ints, m._den = rows, cols, ints, den
    return m


def _placed(rows, cols, blocks):
    """The rows x cols sum of the matrices m of blocks, each placed with
    its (0, 0) entry at (r, c), for (m, r, c) in blocks."""
    den = lcm(*[m._den for m, _, _ in blocks])
    ints = {}
    for m, r, c in blocks:
        f = den // m._den
        for (i, j), v in m._ints.items():
            key = (i + r, j + c)
            ints[key] = ints.get(key, 0) + f * v
    return _normalized(rows, cols, ints, den)


def _int_columns(rows, vecs):
    """The rows x len(vecs) RatMatrix whose column k is ints / den, for
    (ints, den) = vecs[k] with ints a sparse integer vector: all columns
    are put over the lcm of the dens."""
    den = lcm(*[d for _, d in vecs])
    return _normalized(rows, len(vecs), {
        (i, k): v * (den // d) for k, (vec, d) in enumerate(vecs)
        for i, v in vec.items()}, den)


def block_diag(mats):
    """Block-diagonal matrix from a list of RatMatrix."""
    blocks, r, c = [], 0, 0
    for m in mats:
        blocks.append((m, r, c))
        r += m.rows
        c += m.cols
    return _placed(r, c, blocks)


def kronecker_product(a, b):
    """(A kron B)[(i*rowsB+k), (j*colsB+l)] = A[i,j] * B[k,l]."""
    rb, cb = b.rows, b.cols
    return _normalized(a.rows * rb, a.cols * cb, {
        (i * rb + k, j * cb + l): v * w
        for (i, j), v in a._ints.items() for (k, l), w in b._ints.items()},
        a._den * b._den)


def trace_product(a, b):
    """tr(A B) = sum of A[i,j] B[j,i], without forming the product."""
    assert a.cols == b.rows and a.rows == b.cols, "shape mismatch"
    (ai, da), (bi, db) = a.int_form(), b.int_form()
    if len(ai) > len(bi):
        ai, bi = bi, ai  # tr(A B) = tr(B A): scan the sparser factor
    return Rat(sum(v * bi[j, i] for (i, j), v in ai.items()
                   if (j, i) in bi), da * db)


def trace_form_radical(mats):
    """Radical of the trace form (x, y) -> tr(xy) on the span of the square
    matrices mats: the kernel of its Gram matrix tr(mats[i] mats[j]), in
    coordinates of mats, as a kernel_basis.  With mats[i] = t_i / d_i, the
    Gram entry is s_ij / (d_i d_j) for s_ij = tr(t_i t_j); row i times
    d_i L, for L the lcm of the d_j, is the integer row s_ij L / d_j, and
    the rows so scaled have the same kernel.

    When the span is a unital algebra B of matrices over Q, this is the
    Jacobson radical of B: the form's radical is a nil ideal and contains
    every nil ideal, because B acts faithfully and contains the identity.
    """
    n = len(mats)
    ints = [e.int_form() for e in mats]
    transposed = [{(b, a): v for (a, b), v in t.items()} for t, _ in ints]
    den = lcm(*[d for _, d in ints])
    rows = [{} for _ in range(n)]
    for i, (ti, di) in enumerate(ints):
        for j in range(i, n):
            tj = transposed[j]
            s = sum(v * tj[k] for k, v in ti.items() if k in tj)
            if s:
                rows[i][j] = s * (den // ints[j][1])
                rows[j][i] = s * (den // di)
    return kernel_dicts(rows, n)


# -- elimination core ------------------------------------------------
#
# Elimination is fraction-free in the sense of Bareiss (Math. Comp. 22,
# 1968): rows are integer rows, kept primitive by dividing out their gcd
# where Bareiss divides exactly by the previous pivot.  _echelon takes
# integer rows -- dicts col -> nonzero int -- and consumes them: it pops
# their entries and may return them as pivot rows, so a caller passes
# fresh dicts, never a matrix's stored ints.  A RatMatrix gives them as
# int_rows() (den times its rows: same row space and kernel), hom_rows
# builds them, and a caller that holds Rat vectors (rep.submodule and
# rep.quotient_module, on some routes) scales each once.  The results stay
# integers too: pivot rows are primitive integer rows, and _rref_kernel
# gives each kernel vector as integers over the lcm of the pivot entries
# it meets, so a caller builds a RatMatrix from them with _normalized.
# Pivot choice: rows are consumed in the given order and each pivots on
# its leftmost surviving column, which realizes the "first nonzero entry
# by row-major scan" rule.  A reduced echelon form is unique, so the
# output equals that of elimination over Q.
#
# The forward pass first takes out forced zeros.  A one-entry row says
# its unknown is zero, so that column becomes the pivot {c: 1} and is
# dropped from every other row, which may leave new one-entry rows; this
# repeats until none is left.  Dropping a column c whose unit row e_c is
# in the row space leaves the row space unchanged.  The forced set is the
# least one closed under "a row with one entry outside it forces that
# entry's column", so it does not depend on the order in which columns are
# forced: a column -> rows index drops each forced column from just the
# rows that hold it, in place.  A generator that acts diagonally on both
# modules never gets here: rep.hom_rows reads it as a grading and leaves
# the unknowns it forces to zero out of the system.
# The one-entry rows met here come from the other generators, such as an
# x-row that meets a single live unknown.  Only what is left goes through
# the sparsest-first elimination.
#
# The back pass is output-sensitive: it costs one elimination per pivot
# column a row actually holds, not a test of every earlier row for every
# pivot.  It runs from the last pivot to the first, so each row is cleared
# with rows that are already fully reduced.  Such a row is zero at every
# other pivot column, so clearing one never brings a new pivot column in,
# and the row's pivot columns can be read once, before any clearing.
#
# Membership of a vector v in the row space needs only the forward pass:
# append v + e_n, with n a column past every other, as one more row.
# Column n is a pivot exactly when v reduces to zero against the other
# rows, i.e. when v lies in their span (in_row_space).
#
# Every span is one _echelon call on sparse vectors: rep.submodule and
# rep.quotient_module read a subspace's reduced basis off the pivot rows,
# and span_coordinates reads coordinates in it off the pivot entries.
# SpanRREF is the one incremental route left, for the callers that add
# vectors one at a time and keep or stop on each (see its docstring).


_INT = {int}


def _scaled(entries):
    """(ints, den) with entries == ints / den, den the lcm of denominators.

    entries is a dict of Rat (or int) values; ints is a new dict with the
    same keys.
    """
    if _INT.issuperset(map(type, entries.values())):
        return dict(entries), 1
    den = lcm(*[v.denominator for v in entries.values()])
    if den == 1:
        return {k: v.numerator for k, v in entries.items()}, 1
    return {k: v.numerator * (den // v.denominator)
            for k, v in entries.items()}, den


def _rats(ints, den):
    """Rational entries ints / den, dropping zeros."""
    if den == 1:
        return {k: Rat(v) for k, v in ints.items() if v}
    return {k: Rat(v, den) for k, v in ints.items() if v}


def _primitive(r):
    """r divided by the gcd of its entries (r is nonempty)."""
    g = gcd(*r.values())
    if g == 1:
        return r
    return {k: v // g for k, v in r.items()}


def _eliminate(r, p, c):
    """Clear column c of integer row r with pivot row p; returns (row, a).

    p[c] is positive.  The result is a * r - b * p for coprime a > 0 and
    b, a positive multiple a of the rational elimination
    r - (r[c]/p[c]) p.  r itself may be modified.
    """
    f = r.pop(c)
    pc = p[c]
    g = gcd(pc, f)
    a, b = pc // g, f // g
    if a != 1:
        r = {cc: a * vv for cc, vv in r.items()}
    for cc, vv in p.items():
        if cc == c:
            continue
        nv = r.get(cc, 0) - b * vv
        if nv:
            r[cc] = nv
        else:
            r.pop(cc, None)
    return r, a


def _pivot_row(r):
    """Primitive form of a nonempty integer row, positive at its pivot."""
    r = _primitive(r)
    if r[min(r)] < 0:
        return {k: -v for k, v in r.items()}
    return r


def _forced_zeros(rows, pivots):
    """Take the forced zeros out of the integer rows (see above), which it
    modifies in place.

    Each forced column gets the pivot {c: 1} in pivots; returns the rows
    that are left, with those columns dropped, in their given order.
    """
    rows = [r for r in rows if r]
    todo = [c for r in rows if len(r) == 1 for c in r]
    if not todo:
        return rows
    holding = {}  # col -> the rows that hold it
    for r in rows:
        for c in r:
            holding.setdefault(c, []).append(r)
    while todo:
        c = todo.pop()
        if c in pivots:
            continue
        pivots[c] = {c: 1}
        # a column is dropped only once it is forced, so each of these
        # rows still holds c
        for r in holding[c]:
            del r[c]
            if len(r) == 1:
                todo.extend(r)
    return [r for r in rows if r]


def _echelon(rows, reduced=True):
    """Reduced row echelon form of a list of sparse integer rows, which it
    consumes (see the elimination-core comment above).

    Returns (pivot_cols, pivot_rows): parallel lists, pivot_cols ascending,
    each pivot row a primitive integer row, positive at its pivot and zero
    at the other pivots; divided by its pivot entry it is the reduced row.
    With reduced=False only the forward pass runs and pivot_rows is None,
    which is all a rank or a membership test needs.
    """
    pivots = {}  # col -> primitive integer row, positive at col
    rows = _forced_zeros(rows, pivots)
    # Process the sparsest rows first: cheap, and it keeps fill-in low.
    for r in sorted(rows, key=len):
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = _pivot_row(r)
                break
            r, a = _eliminate(r, p, c)
            if a != 1 and r:
                r = _primitive(r)
    cols = sorted(pivots)
    if not reduced:
        return cols, None
    # Back-substitute for the reduced form, last pivot first (see above).
    for c in reversed(cols):
        r = pivots[c]
        held = [c2 for c2 in r if c2 != c and c2 in pivots]
        if held:
            for c2 in held:
                r = _eliminate(r, pivots[c2], c2)[0]
            pivots[c] = _primitive(r)
    return cols, [pivots[c] for c in cols]


def _rref_kernel(pivot_cols, pivot_rows, cols):
    """Kernel basis over the columns cols, ascending, of the reduced echelon
    form given by _echelon's pivot rows, whose pivots all lie in cols: one
    vector per free column f of cols, in order, 1 at f, -row[f] / row[c]
    at the pivot c of each row that holds f, and 0 elsewhere.

    Each vector comes as (ints, den), integers over den, the lcm of the
    pivot entries row[c] it meets; ints / den need not be in lowest terms.
    """
    pivot_set = set(pivot_cols)
    meets = {f: [] for f in cols if f not in pivot_set}
    for c, row in zip(pivot_cols, pivot_rows):
        p = row[c]
        for f, w in row.items():
            held = meets.get(f)  # None at pivots and at columns not in cols
            if held is not None:
                held.append((c, w, p))
    kernel = []
    for f, held in meets.items():
        den = lcm(*[p for _, _, p in held])
        vec = {f: den}
        for c, w, p in held:
            vec[c] = -w * (den // p)
        kernel.append((vec, den))
    return kernel


def in_row_space(rows, vec, ncols):
    """Is the sparse integer row vec in the span of the sparse integer rows
    (which are consumed)?

    All columns lie below ncols.  Runs the forward pass only (see the
    elimination-core comment above).
    """
    aug = dict(vec)
    aug[ncols] = 1
    return ncols in _echelon(rows + [aug], reduced=False)[0]


def kernel_dicts(rows, ncols):
    """Kernel basis of the linear system given by sparse integer rows (which
    are consumed), as sparse Rat dicts: one per free column in ascending
    order, each with entry 1 at its free column -- the reduced echelon
    normal form of the kernel."""
    return [_rats(vec, den)
            for vec, den in _rref_kernel(*_echelon(rows), range(ncols))]


def kernel_basis(a):
    """Basis of the right null space of a RatMatrix, in normal form, as
    sparse vectors."""
    return kernel_dicts(a.int_rows(), a.cols)


def span_coordinates(incl, mat):
    """X with incl X = mat, for incl a matrix whose columns are a reduced
    echelon basis of their span -- each 1 at its pivot, its least index,
    and 0 at the other pivots, as rep.submodule builds them: X is mat's
    rows at those pivots.  Raises NoSolution when a column of mat is
    outside their span."""
    pos = {min(col): k for k, col in enumerate(incl.transpose().int_rows())}
    ints, den = mat.int_form()
    coords = _normalized(incl.cols, mat.cols, {
        (pos[i], j): v for (i, j), v in ints.items() if i in pos}, den)
    if incl * coords != mat:
        raise NoSolution("a column is outside the span")
    return coords


def solve_linear(a, b):
    """One exact solution x of A x = b plus a kernel basis, all sparse
    vectors; x is 0 at the free columns.

    Raises NoSolution when b is not in the image of A.
    """
    rows = a.int_rows()  # den_a A
    aug = a.cols  # column index used for the right-hand side
    b, den_b = _scaled(b)  # den_b b
    for i, bi in b.items():
        rows[i][aug] = bi
    pivot_cols, pivot_rows = _echelon(rows)
    if aug in pivot_cols:
        raise NoSolution("rhs not in the image")
    # the rows solve den_a A y = den_b b, so x = (den_a / den_b) y
    den_a = a.int_form()[1]
    x = {c: Rat(row[aug] * den_a, row[c] * den_b)
         for c, row in zip(pivot_cols, pivot_rows) if aug in row}
    # aug is no pivot, so the rows without their aug entries are the
    # reduced echelon form of A itself
    return x, [_rats(vec, den) for vec, den
               in _rref_kernel(pivot_cols, pivot_rows, range(a.cols))]


class SpanRREF:
    """Incrementally maintained echelon form of a growing set of sparse
    vectors, for the callers that add vectors one at a time and keep or
    stop on each: the Krylov pass of minimal_polynomial, the
    generators-generate check of hopf.check_hopf_axioms, and the Kronecker
    route's choice of vectors independent of a span (the chain ends in
    rep._lt_chains, the regular head in rep._regular_chains and the chain
    tops in rep._chains).  Every other span is one _echelon call.  The class
    stays a class because perfbench's tracer times SpanRREF.add.  The
    basis is kept fraction-free, as primitive integer rows.
    """

    def __init__(self):
        self.pivots = {}  # col -> primitive integer row, positive at col

    def add(self, vec):
        """Add the sparse vec to the span; returns True if the rank grew."""
        r = _scaled(vec)[0]
        for c in list(r):
            # the pivot rows vanish at every other pivot column, so the
            # columns met here are the ones vec started with
            if c in r and c in self.pivots:
                r = _eliminate(r, self.pivots[c], c)[0]
        if not r:
            return False
        row = _pivot_row(r)
        c = min(row)
        # Keep reduced form: eliminate the new pivot from old rows.
        for c2, r2 in self.pivots.items():
            if c in r2:
                self.pivots[c2] = _primitive(_eliminate(r2, row, c)[0])
        self.pivots[c] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)


# -- polynomials over Q ----------------------------------------------
#
# A polynomial is a list of Rat coefficients, lowest degree first, whose
# last (leading) entry is nonzero; [] is the zero polynomial.


def minimal_polynomial(a):
    """Monic minimal polynomial of a square RatMatrix.

    A Krylov pass over the powers I, A, A^2, ...: each is added to the
    span of the earlier ones until one is dependent.  The power columns
    then have a one-dimensional kernel, and its normal-form vector is 1
    at the last power: the coefficients of the first relation.
    """
    n = a.rows
    span = SpanRREF()
    powers = [RatMatrix.identity(n)]
    while span.add({i * n + j: v for (i, j), v
                    in powers[-1].int_form()[0].items()}):
        powers.append(powers[-1] * a)
    # the power columns over one common denominator: the same kernel
    den = lcm(*[p.int_form()[1] for p in powers])
    rows = {}
    for k, p in enumerate(powers):
        ints, d = p.int_form()
        for ij, v in ints.items():
            rows.setdefault(ij, {})[k] = v * (den // d)
    (rel,) = kernel_dicts(list(rows.values()), len(powers))
    return [rel.get(k, ZERO) for k in range(len(powers))]


def _poly_divmod(a, b):
    """(quotient, remainder) of the polynomial a by a nonzero b."""
    r = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = q[k] = r[-1] / b[-1]
        for i, v in enumerate(b):
            r[k + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return q, r


def squarefree_part(p):
    """p / gcd(p, p') for a nonzero p: over Q, the product of the distinct
    irreducible factors of p, up to a nonzero scalar."""
    g, h = p, [k * c for k, c in enumerate(p)][1:]
    while h:  # Euclid: g becomes gcd(p, p')
        g, h = h, _poly_divmod(g, h)[1]
    return _poly_divmod(p, g)[0]


def _integer_poly(p):
    """The primitive integer polynomial that is a positive multiple of p."""
    ints, _ = _scaled(dict(enumerate(p)))
    g = gcd(*ints.values()) or 1
    return [ints[k] // g for k in range(len(p))]


def _value_at(c, y, a):
    """a^d c(y / a), for an integer polynomial c of degree d and a > 0: an
    integer with the sign of c(y / a)."""
    h, w = 0, 1
    for ci in reversed(c):
        h = h * y + ci * w
        w *= a
    return h


def rational_roots(p):
    """Distinct rational roots of a nonzero polynomial, ascending.

    f, an integer multiple of the squarefree part of p with leading
    coefficient a > 0, has the same roots.  A rational root r of f makes
    a r an integer y (a r is a rational algebraic integer), and |y| is at
    most Y, the sum of the absolute values of f's coefficients (Cauchy's
    bound).  The Sturm sequence of f counts its real roots in an interval
    (lo, hi], so bisection over the integers in (-Y - 1, Y] narrows each
    real root to one (y - 1, y], whose only candidate y / a is checked
    exactly.  The cost grows with the number of bits of the coefficients,
    not with their size, as a search over their divisors would.
    """
    f = _integer_poly(squarefree_part(p))
    if f[-1] < 0:
        f = [-c for c in f]
    sturm = [f, _integer_poly([k * c for k, c in enumerate(f)][1:])]
    while len(sturm[-1]) > 1:  # f is squarefree: ends in a constant
        rem = _poly_divmod([Rat(c) for c in sturm[-2]], sturm[-1])[1]
        sturm.append(_integer_poly([-c for c in rem]))
    a = f[-1]

    def changes(y):
        signs = [v > 0 for v in (_value_at(c, y, a) for c in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    roots = []
    bound = sum(map(abs, f))
    stack = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if not _value_at(f, hi, a):
                roots.append(Rat(hi, a))
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)
