"""Exact rational scalars and matrices.

Everything downstream (Hopf structure constants, module actions, hom
spaces) runs on this module, so arithmetic is exact: scalars are GMP
rationals (`fractions.Fraction` when gmpy2 is unavailable) and all
elimination uses deterministic pivoting -- first nonzero entry in
row-major scan -- so kernel bases and normal forms are reproducible.

Matrices are stored sparsely (dict of nonzero entries) because module
action matrices are mostly zeros, but the public contract is the dense
one: a rows x cols grid of rationals.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .errors import NoSolution

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is an optional speed-up
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(p, q=1):
    """Exact rational p/q, always in lowest terms with positive denominator."""
    return Rat(p, q)


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
    """Dense-contract exact rational matrix with a sparse backing store.

    `data` maps (i, j) -> nonzero Rat.  Mutating constructors are kept
    module-internal; treat instances as immutable once built.
    """

    __slots__ = ("rows", "cols", "data", "_ints")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        self.data = {} if data is None else data
        self._ints = None

    def int_form(self):
        """(ints, den): data == ints / den entrywise, den the least common
        denominator; computed once per matrix."""
        if self._ints is None:
            self._ints = _scaled(self.data)
        return self._ints

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list):
        nr = len(rows_list)
        nc = len(rows_list[0]) if nr else 0
        data = {}
        for i, row in enumerate(rows_list):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = _as_rat(v)
        return cls(nr, nc, data)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def diagonal(cls, entries):
        data = {}
        for i, v in enumerate(entries):
            v = Rat(v)
            if v:
                data[(i, i)] = v
        return cls(len(entries), len(entries), data)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """Matrix whose j-th column is columns[j] (vectors as sequences)."""
        nc = len(columns)
        nr = rows if rows is not None else (len(columns[0]) if nc else 0)
        data = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = _as_rat(v)
        return cls(nr, nc, data)

    # -- access ------------------------------------------------------

    def __getitem__(self, ij):
        return self.data.get(ij, ZERO)

    def to_rows(self):
        return [[self.data.get((i, j), ZERO) for j in range(self.cols)]
                for i in range(self.rows)]

    def column(self, j):
        return [self.data.get((i, j), ZERO) for i in range(self.rows)]

    def dense_columns(self):
        """All columns, as dense vectors."""
        cols = [[ZERO] * self.rows for _ in range(self.cols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def col_dicts(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    # -- arithmetic --------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.data.items())))

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        data = dict(self.data)
        for k, v in other.data.items():
            nv = data.get(k, ZERO) + v
            if nv:
                data[k] = nv
            else:
                data.pop(k, None)
        return RatMatrix(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatMatrix(self.rows, self.cols,
                         {k: -v for k, v in self.data.items()})

    def scale(self, c):
        if c == 1:
            return self
        c = Rat(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        return RatMatrix(self.rows, self.cols,
                         {k: c * v for k, v in self.data.items()})

    def __mul__(self, other):
        """Matrix product (or scalar multiple for non-matrix operands)."""
        if not isinstance(other, RatMatrix):
            return self.scale(other)
        assert self.cols == other.rows, "shape mismatch"
        # integer products over the common denominators, one Rat per entry
        a, da = self.int_form()
        b, db = other.int_form()
        rows_b = [{} for _ in range(other.rows)]
        for (k, j), w in b.items():
            rows_b[k][j] = w
        acc = {}
        for (i, k), v in a.items():
            for j, w in rows_b[k].items():
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        acc = {k: v for k, v in acc.items() if v}
        den = da * db
        g = gcd(den, *acc.values())
        if g != 1:
            acc = {k: v // g for k, v in acc.items()}
            den //= g
        out = RatMatrix(self.rows, other.cols, _rats(acc, den))
        out._ints = (acc, den)
        return out

    __rmul__ = scale

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of length cols."""
        out = [ZERO] * self.rows
        for (i, j), v in self.data.items():
            w = vec[j]
            if w is not ZERO and w:
                out[i] = out[i] + v * w
        return out

    def transpose(self):
        return RatMatrix(self.cols, self.rows,
                         {(j, i): v for (i, j), v in self.data.items()})

    def trace(self):
        return sum((v for (i, j), v in self.data.items() if i == j), ZERO)

    def is_zero(self):
        return not self.data

    def power(self, n):
        assert self.rows == self.cols
        result = RatMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def rank(self):
        return len(_echelon(self.row_dicts(), reduced=False)[0])

    def kron(self, other):
        return kronecker_product(self, other)

    def hstack(self, other):
        assert self.rows == other.rows
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i, j + self.cols)] = v
        return RatMatrix(self.rows, self.cols + other.cols, data)

    def __repr__(self):
        if self.rows * self.cols <= 64:
            body = "; ".join(
                " ".join(rat_to_str(self.data.get((i, j), ZERO))
                         for j in range(self.cols))
                for i in range(self.rows))
            return f"RatMatrix({self.rows}x{self.cols}: {body})"
        return f"RatMatrix({self.rows}x{self.cols}, nnz={len(self.data)})"


def block_diag(mats):
    """Block-diagonal matrix from a list of RatMatrix."""
    r = c = 0
    data = {}
    for m in mats:
        for (i, j), v in m.data.items():
            data[(r + i, c + j)] = v
        r += m.rows
        c += m.cols
    return RatMatrix(r, c, data)


def kronecker_product(a, b):
    """(A kron B)[(i*rowsB+k), (j*colsB+l)] = A[i,j] * B[k,l]."""
    data = {}
    rb, cb = b.rows, b.cols
    for (i, j), v in a.data.items():
        for (k, l), w in b.data.items():
            data[(i * rb + k, j * cb + l)] = v * w
    return RatMatrix(a.rows * rb, a.cols * cb, data)


def trace_product(a, b):
    """tr(A B) = sum of A[i,j] B[j,i], without forming the product."""
    assert a.cols == b.rows and a.rows == b.cols, "shape mismatch"
    if len(a.data) > len(b.data):
        a, b = b, a  # tr(A B) = tr(B A): scan the sparser factor
    bd = b.data
    total = ZERO
    for (i, j), v in a.data.items():
        w = bd.get((j, i))
        if w is not None:
            total += v * w
    return total


# -- elimination core ------------------------------------------------
#
# Elimination is fraction-free in the sense of Bareiss (Math. Comp. 22,
# 1968): rows are integer rows, kept primitive by dividing out their gcd
# where Bareiss divides exactly by the previous pivot, and only the
# normalized output is turned back into rationals.  Rows are
# dicts col -> nonzero value.  Pivot choice: rows are consumed in the
# given order and each pivots on its leftmost surviving column, which
# realizes the "first nonzero entry by row-major scan" rule.  A reduced
# echelon form is unique, so the output equals that of elimination over Q.
#
# The forward pass first takes out forced zeros.  A one-entry row says
# its unknown is zero, so that column becomes the pivot {c: 1} and is
# dropped from every other row, which may leave new one-entry rows; this
# repeats until none is left.  Dropping a column c whose unit row e_c is
# in the row space leaves the row space unchanged.  The diagonal K of
# every realized module makes about a third of the rows of a hom system
# such one-entry rows.  A module given in another basis reaches this too:
# rep.decompose first moves a K-type module to a K-eigenbasis, and every
# piece it splits off keeps a diagonal K.  Only what is left goes through
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


_INT = {int}


def _scaled(entries):
    """(ints, den) with entries == ints / den, den the lcm of denominators.

    entries is a dict of Rat (or int) values; ints has the same keys.
    """
    if _INT.issuperset(map(type, entries.values())):
        return dict(entries), 1  # already integers, as hom systems are
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
    """Take the forced zeros out of the integer rows (see above).

    Each forced column gets the pivot {c: 1} in pivots; returns the rows
    that are left, with those columns dropped, in their given order.
    """
    rows = [r for r in rows if r]
    while True:
        forced = {c for r in rows if len(r) == 1 for c in r}
        if not forced:
            return rows
        for c in forced:
            pivots[c] = {c: 1}
        rows = [r if r.keys().isdisjoint(forced)
                else {c: v for c, v in r.items() if c not in forced}
                for r in rows]
        rows = [r for r in rows if r]


def _echelon(rows, reduced=True):
    """Reduced row echelon form of a list of sparse rows.

    Returns (pivot_cols, pivot_rows): parallel lists, pivot_cols ascending,
    each pivot row a primitive integer row, positive at its pivot and zero
    at the other pivots; divided by its pivot entry it is the reduced row.
    With reduced=False only the forward pass runs and pivot_rows is None,
    which is all a rank or a membership test needs.
    """
    pivots = {}  # col -> primitive integer row, positive at col
    rows = _forced_zeros([_scaled(r)[0] for r in rows], pivots)
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


def _rref_kernel(pivot_cols, pivot_rows, ncols):
    """Kernel basis of the columns < ncols of a reduced echelon form whose
    pivots all lie below ncols: one sparse dict per free column, in
    ascending order, each with entry 1 at its free column."""
    pivot_set = set(pivot_cols)
    kernel = {f: {f: ONE} for f in range(ncols) if f not in pivot_set}
    for c, row in zip(pivot_cols, pivot_rows):
        p = row[c]
        for f, w in row.items():
            vec = kernel.get(f)  # None at pivots and at columns >= ncols
            if vec is not None:
                vec[c] = Rat(-w, p)
    return list(kernel.values())


def in_row_space(rows, vec, ncols):
    """Is the sparse row vec in the span of the sparse rows?

    All columns lie below ncols.  Runs the forward pass only (see the
    elimination-core comment above).
    """
    aug = dict(vec)
    aug[ncols] = 1
    return ncols in _echelon(rows + [aug], reduced=False)[0]


def kernel_dicts(rows, ncols):
    """Kernel basis of the linear system given by sparse rows, as sparse
    dicts: one per free column in ascending order, each with entry 1 at
    its free column -- the reduced echelon normal form of the kernel."""
    return _rref_kernel(*_echelon(rows), ncols)


def _dense(vec, n):
    """Dense vector of length n from a sparse dict."""
    v = [ZERO] * n
    for c, w in vec.items():
        v[c] = w
    return v


def sparse_kernel(rows, ncols):
    """kernel_dicts as dense vectors of length ncols."""
    return [_dense(vec, ncols) for vec in kernel_dicts(rows, ncols)]


def kernel_basis(a):
    """Basis of the right null space of a RatMatrix, in normal form."""
    return sparse_kernel(a.row_dicts(), a.cols)


def solve_linear(a, b):
    """One exact solution of A x = b plus a kernel basis.

    Raises NoSolution when b is not in the image of A.
    """
    if len(b) != a.rows:
        raise ValueError("rhs length must equal row count")
    rows = a.row_dicts()
    aug = a.cols  # column index used for the right-hand side
    for i, bi in _nonzeros(b).items():
        rows[i][aug] = bi
    pivot_cols, pivot_rows = _echelon(rows)
    if aug in pivot_cols:
        raise NoSolution("rhs not in the image")
    x = [ZERO] * a.cols
    for c, row in zip(pivot_cols, pivot_rows):
        if aug in row:
            x[c] = Rat(row[aug], row[c])
    # aug is no pivot, so the rows without their aug entries are the
    # reduced echelon form of A itself
    kernel = _rref_kernel(pivot_cols, pivot_rows, a.cols)
    return x, [_dense(vec, a.cols) for vec in kernel]


class SpanRREF:
    """Incrementally maintained RREF of a growing set of vectors.

    Supports rank queries and unique coordinates of a vector at the
    pivot positions.  Used for column spaces, submodule bases and
    quotient constructions.  Vectors are dense sequences of rationals;
    the basis is kept fraction-free, as primitive integer rows.
    """

    def __init__(self, dim):
        self.dim = dim
        self.pivots = {}  # col -> primitive integer row, positive at col
        self.order = []   # pivot cols in insertion order

    def _reduce_int(self, vec):
        """vec modulo the span, as an integer row scaled by a positive
        factor: empty exactly when vec lies in the span."""
        r = _scaled(_nonzeros(vec))[0]
        for c in list(r):
            # the pivot rows vanish at every other pivot column, so the
            # columns met here are the ones vec started with
            if c in r and c in self.pivots:
                r = _eliminate(r, self.pivots[c], c)[0]
        return r

    def add(self, vec):
        """Add vec to the span; returns True if the rank grew."""
        r = self._reduce_int(vec)
        if not r:
            return False
        row = _pivot_row(r)
        c = min(row)
        # Keep reduced form: eliminate the new pivot from old rows.
        for c2, r2 in self.pivots.items():
            if c in r2:
                self.pivots[c2] = _primitive(_eliminate(r2, row, c)[0])
        self.pivots[c] = row
        self.order.append(c)
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def basis_rows(self):
        """Current basis in ascending pivot order, as (pivot col, sparse
        row) pairs, each row 1 at its pivot and 0 at the other pivots."""
        return [(c, _rats(self.pivots[c], self.pivots[c][c]))
                for c in sorted(self.pivots)]

    def basis_vectors(self):
        """Current basis in ascending pivot order, as dense vectors."""
        out = []
        for _, row in self.basis_rows():
            v = [ZERO] * self.dim
            for cc, vv in row.items():
                v[cc] = vv
            out.append(v)
        return out

    def pivot_cols(self):
        return sorted(self.pivots)

    def coordinates(self, vec):
        """Coordinates of vec in basis_vectors(); raises if not in span.

        Each basis vector is 1 at its own pivot and 0 at the others, so
        the coordinates are the entries of vec at the pivot columns.
        """
        if self._reduce_int(vec):
            raise NoSolution("vector not in span")
        return [_as_rat(vec[c]) for c in sorted(self.pivots)]


def _nonzeros(vec):
    """Sparse dict of a dense vector; the shared ZERO is skipped unread."""
    return {i: v for i, v in enumerate(vec) if v is not ZERO and v}


def _as_rat(v):
    return v if type(v) is Rat else Rat(v)


def column_space(a):
    """SpanRREF of the column space of a RatMatrix."""
    span = SpanRREF(a.rows)
    for vec in a.dense_columns():
        span.add(vec)
    return span


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
    span = SpanRREF(n * n)
    powers = [RatMatrix.identity(n)]
    while span.add(_dense({i * n + j: v for (i, j), v
                           in powers[-1].data.items()}, n * n)):
        powers.append(powers[-1] * a)
    rows = {}
    for k, p in enumerate(powers):
        for ij, v in p.data.items():
            rows.setdefault(ij, {})[k] = v
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


def _divisors(n):
    """Positive divisors of a nonzero integer."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def rational_roots(p):
    """Distinct rational roots of a nonzero polynomial, ascending.

    The rational-root test on f, the integer multiple of p with the
    power t^low that divides it taken out (t^low gives the root 0): a
    nonzero root w/v in lowest terms has w dividing f(0) and v dividing
    the leading coefficient.
    """
    ints, _ = _scaled({k: c for k, c in enumerate(p) if c})
    low = min(ints)
    f = [ints.get(k, 0) for k in range(low, len(p))]
    n = len(f) - 1
    roots = {ZERO} if low else set()
    for u in _divisors(f[0]):
        for v in _divisors(f[n]):
            if gcd(u, v) != 1:
                continue
            for w in (u, -u):  # is v^n f(w/v), an integer, zero?
                if not sum(c * w ** k * v ** (n - k) for k, c in enumerate(f)):
                    roots.add(Rat(w, v))
    return sorted(roots)
