"""Modules over the structure-constant algebras.

A module is one action matrix per algebra generator; everything else --
tensor products through the coproduct, duals through the antipode, hom
spaces, radical/socle, projective covers and the full decomposition into
indecomposables -- is exact linear algebra on those matrices.

Hom spaces: a generator that acts diagonally on both modules grades the
intertwining system, so hom_rows leaves out every unknown T[i, j] at
which its two eigenvalues differ, and emits rows only for the other
generators.

Decomposition strategy: over K2-type algebras M is first moved to a
K-eigenbasis (K^2 = 1, so the two eigenspaces span M).  Summands inherit
the diagonal K, because in such a basis the reduced echelon basis of a
K-stable subspace is the union of those of its two eigenspace parts; so
K grades every hom system solved under decompose.  Then the
projective summands are split off (the top odd word acts nonzero exactly
on them, and the free part, spanned by the odd words applied to
preimages of its image, splits because the algebra is self-injective).
Over K2 the remainder has rad^2 = 0, so it is a pair of Kronecker
pencils (x1, x2) from the head to the radical, one for each sign of K on
the head (the separated-quiver functor), and kronecker_route splits each
into its Kronecker blocks (Gantmacher, The Theory of Matrices II, Ch.
XII) by Wong sequences of subspaces of the pencil itself, with no shift:
L blocks (V and O(+s)), LT blocks (O(-s)) and the blocks M(n, r, eta) at
the rational points eta of P^1.  The L blocks and the blocks at infinity
are read in one pass off the Wong sequence at infinity, the LT blocks off
its mirror flag, and the blocks at each finite point eta, an eigenvalue
of A1^-1 A2 on the rest, off the Wong sequence at eta (one routine,
_wong, runs every sequence).  These blocks (kronecker_block) are the
realizations of the labels.  The route returns its basis change only
after checking it by matrix equality (check_witness), so decompose and
identify read one checked split; no End(M), hom system or isomorphism
test is solved.  Over the other K-type algebras the remainder goes to
the endomorphism-algebra meataxe: the trace-form radical of End(M)
certifies indecomposable modules (End(M) local), and every other module
is split by the Fitting split of theta - lambda, for theta in a sample
drawn from a basis of End(M)/rad and lambda a rational eigenvalue found
by Sturm bisection.

Over DK1 one seam, _bc_blocks, splits M once by the central involution
bc.  On its +1 block both group-likes act alike, so DK1 acts through K2
(restrict_pi), and decompose, identify, projective_cover and
is_negligible run the K2 routes there; its -1 block is a sum of the
simple projectives St(0) and St(1), split by one checked basis change
(_steinberg_parities), never by the meataxe.  The pivot of the quantum
trace is K, and b over DK1 (pivot).

Vectors are sparse dicts index -> Rat or int; quotient_module takes
integer vectors only, and consumes them.  submodule and quotient_module
take vectors that already span a submodule, and read its basis off the
primitive integer pivot rows of one ratlin._echelon call; they build the
inclusion and the projection from those integers, as hom_basis builds
its maps from integer kernel vectors, with no Rat made.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm

from .errors import (AlgebraMismatch, GreenRingError, InvalidLabel,
                     InvalidModule, NonSplitField, NotInR0, OutOfRange,
                     Unclassified)
from .hopf import build_dk1, build_km, get_algebra, jacobson_radical
from .ratlin import (ONE, ZERO, Rat, RatMatrix, _echelon, _int_columns,
                     _normalized, _rref_kernel, _scaled, block_diag,
                     SpanRREF, kernel_dicts, minimal_polynomial,
                     rat_from_str, rat_to_str, rational_roots,
                     span_coordinates, squarefree_part, trace_form_radical)

_radical_cache = {}


def algebra_radical(algebra):
    """Cached radical basis (sparse vectors) of an algebra."""
    if algebra.name not in _radical_cache:
        _radical_cache[algebra.name] = jacobson_radical(algebra)
    return _radical_cache[algebra.name]


class ModuleRep:
    """A module: one dim x dim action matrix per algebra generator."""

    def __init__(self, algebra, dim, actions):
        self.algebra = algebra
        self.dim = dim
        self.actions = dict(actions)
        for lbl, _ in algebra.generators:
            if lbl not in self.actions:
                raise ValueError(f"missing action for generator {lbl}")
        self._word_actions = {}

    def word_action(self, k):
        """Action matrix of the k-th basis word of the algebra."""
        m = self._word_actions.get(k)
        if m is None:
            acts = [self.actions[self.algebra.gen_labels[g]]
                    for g in self.algebra.words[k]]
            m = acts[0] if acts else RatMatrix.identity(self.dim)
            for a in acts[1:]:
                m = m * a
            self._word_actions[k] = m
        return m

    def elem_action(self, vec):
        """Action of an algebra element given as sparse dict idx -> Rat."""
        out = RatMatrix.zeros(self.dim, self.dim)
        for k, c in vec.items():
            out = out + self.word_action(k).scale(c)
        return out

    def to_json_dict(self):
        return {
            "algebra": self.algebra.name,
            "dim": self.dim,
            "actions": {lbl: [[rat_to_str(v) for v in row]
                              for row in self.actions[lbl].to_rows()]
                        for lbl, _ in self.algebra.generators},
        }

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of to_json_dict.  Raises InvalidModule when the algebra
        is unknown, a generator's action is missing or unknown, an action
        is not dim x dim, or an entry is not a rational; whether the
        actions define a module is check_module's question."""
        if not (isinstance(d, dict)
                and {"algebra", "dim", "actions"} <= d.keys()):
            raise InvalidModule(
                "a module needs the keys 'algebra', 'dim' and 'actions'")
        try:
            algebra = get_algebra(str(d["algebra"]))
        except OutOfRange as exc:
            raise InvalidModule(str(exc)) from None
        dim, actions = d["dim"], d["actions"]
        if type(dim) is not int or dim < 0:
            raise InvalidModule(f"dim must be a non-negative integer, "
                                f"not {dim!r}")
        labels = [lbl for lbl, _ in algebra.generators]
        if not isinstance(actions, dict) or set(actions) != set(labels):
            raise InvalidModule(f"actions must be given for exactly the "
                                f"generators {', '.join(labels)} of "
                                f"{algebra.name}")
        mats = {}
        for lbl in labels:
            rows = actions[lbl]
            if not (isinstance(rows, list) and len(rows) == dim
                    and all(isinstance(r, list) and len(r) == dim
                            and all(isinstance(v, str) for v in r)
                            for r in rows)):
                raise InvalidModule(f"the action of {lbl} is not a "
                                    f"{dim} x {dim} matrix of strings")
            try:
                mats[lbl] = RatMatrix.from_rows(
                    [[rat_from_str(v) for v in row] for row in rows])
            except (ValueError, ZeroDivisionError):
                raise InvalidModule(f"the action of {lbl} has an entry "
                                    "that is not a rational 'p/q'") from None
        return cls(algebra, dim, mats)

    def __repr__(self):
        return f"ModuleRep({self.algebra.name}, dim={self.dim})"


def _same_algebra(*mods):
    names = {m.algebra.name for m in mods}
    if len(names) > 1:
        raise AlgebraMismatch(f"modules over different algebras: {names}")


def trivial_module(algebra):
    """The tensor unit: every generator acts by its counit scalar."""
    actions = {}
    for g, (lbl, _) in enumerate(algebra.generators):
        c = algebra.counit[algebra.index[(g,)]]
        actions[lbl] = RatMatrix.diagonal([c])
    return ModuleRep(algebra, 1, actions)


def zero_module(algebra):
    actions = {lbl: RatMatrix.zeros(0, 0) for lbl, _ in algebra.generators}
    return ModuleRep(algebra, 0, actions)


def regular_module(algebra):
    """Left regular module: generators act by left multiplication."""
    n = algebra.dim
    actions = {}
    for g, (lbl, _) in enumerate(algebra.generators):
        gi = algebra.index[(g,)]
        data = {}
        for j in range(n):
            for i, v in algebra.mult[(gi, j)].items():
                data[(i, j)] = v
        actions[lbl] = RatMatrix(n, n, data)
    return ModuleRep(algebra, n, actions)


class ModuleReport:
    """check_module outcome: every structure-constant identity, exactly."""

    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ModuleReport(pass)"
        return f"ModuleReport(fail: {self.failures[:3]}...)"


def check_module(m):
    """Exact check that the actions define a module.

    Verifies rho(w_i) rho(w_j) = rho(w_i w_j) on all basis words and that
    the unit acts as the identity, which covers every defining relation.
    """
    failures = []
    a = m.algebra
    if m.elem_action(a.unit) != RatMatrix.identity(m.dim):
        failures.append("unit does not act as identity")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = m.word_action(i) * m.word_action(j)
            rhs = m.elem_action(a.mult[(i, j)])
            if lhs != rhs:
                failures.append(
                    f"{a.basis_labels[i]} * {a.basis_labels[j]}")
    return ModuleReport(not failures, failures)


def tensor(m, n):
    """Tensor product along the coproduct of the common algebra.

    Each generator acts by the sum over its coproduct terms c (p (x) q) of
    c rho_M(p) kron rho_N(q), summed in one integer pass over the lcm of
    the terms' denominators.
    """
    _same_algebra(m, n)
    a = m.algebra
    dn = n.dim
    dim = m.dim * dn
    actions = {}
    for g, (lbl, _) in enumerate(a.generators):
        terms = []  # (c, ints of p, ints of q, den of c p kron q)
        for (p, q), c in a.comult[a.index[(g,)]].items():
            (pi, dp), (qi, dq) = (m.word_action(p).int_form(),
                                  n.word_action(q).int_form())
            terms.append((c, pi, qi, c.denominator * dp * dq))
        den = lcm(*[d for *_, d in terms])
        acc = {}
        for c, pi, qi, d in terms:
            f = c.numerator * (den // d)
            for (i, j), v in pi.items():
                fv, i0, j0 = f * v, i * dn, j * dn
                for (k, l), w in qi.items():
                    key = (i0 + k, j0 + l)
                    acc[key] = acc.get(key, 0) + fv * w
        actions[lbl] = _normalized(dim, dim, acc, den)
    return ModuleRep(a, dim, actions)


def dual(m):
    """Dual module: rho*(g) = transpose of rho(S(g))."""
    a = m.algebra
    actions = {}
    for g, (lbl, _) in enumerate(a.generators):
        s = a.antipode[a.index[(g,)]]
        actions[lbl] = m.elem_action(s).transpose()
    return ModuleRep(a, m.dim, actions)


def direct_sum(mods, algebra=None):
    """Block-diagonal direct sum; empty input needs the algebra argument."""
    if not mods:
        if algebra is None:
            raise ValueError("empty direct sum needs an explicit algebra")
        return zero_module(algebra)
    _same_algebra(*mods)
    a = mods[0].algebra
    actions = {lbl: block_diag([m.actions[lbl] for m in mods])
               for lbl, _ in a.generators}
    return ModuleRep(a, sum(m.dim for m in mods), actions)


def hom_rows(m, n):
    """The intertwining constraints T rho_M(g) = rho_N(g) T, as sparse
    integer rows over the live unknowns of T; returns (rows, live).

    T is vectorized row-major over (target row, source col), so unknown
    i * dim M + j is T[i, j].  A generator that acts diagonally on both M
    and N grades the system: its constraint T[i, j] (a_M[j, j] - a_N[i, i])
    = 0 only says that T[i, j] = 0 where its eigenvalues at j and at i
    differ.  The live unknowns, ascending, are those whose two eigenvalues
    agree under every grading generator, and rows are the constraints of
    the other generators restricted to them; no row is emitted for a
    grading generator.  Hom(M, N) is the kernel of rows over live, with
    every other unknown 0.  When no generator is diagonal on both modules
    every unknown is live, and the rows are all the constraints.
    """
    _same_algebra(m, n)
    dm, dn = m.dim, n.dim
    grading, others = [], []
    for lbl, _ in m.algebra.generators:
        pair = m.actions[lbl].int_form(), n.actions[lbl].int_form()
        diagonal = all(i == j for ints, _ in pair for i, j in ints)
        (grading if diagonal else others).append(pair)
    # exact eigenvalue keys: a_M[j, j] = am[j, j] / da equals
    # a_N[i, i] = an[i, i] / dan iff am[j, j] * dan == an[i, i] * da
    key_m = [tuple(am.get((j, j), 0) * dan for (am, _), (_, dan) in grading)
             for j in range(dm)]
    key_n = [tuple(an.get((i, i), 0) * da for (_, da), (an, _) in grading)
             for i in range(dn)]
    # eigenvalue classes: T[i, j] is live iff cls_n[i] == cls_m[j]
    ids = {}
    cls_m = [ids.setdefault(k, len(ids)) for k in key_m]
    cls_n = [ids.setdefault(k, len(ids)) for k in key_n]
    members = [[] for _ in ids]  # the j of each class
    for j, c in enumerate(cls_m):
        members[c].append(j)
    live = [i * dm + j for i, c in enumerate(cls_n) for j in members[c]]
    rows = []
    for (am, da), (an, dan) in others:
        # (T am - an T)[i, b] = 0, scaled to integer coefficients: T[i, j]
        # meets column b of am, and T[k, b] row i of an; each list is split
        # by the class of j or k, so only live unknowns are read
        den = lcm(da, dan)
        fm, fn = den // da, den // dan
        am_cols = [{} for _ in range(dm)]
        for (j, b), v in am.items():
            am_cols[b].setdefault(cls_m[j], []).append((j, v * fm))
        an_rows = [{} for _ in range(dn)]
        for (i, k), v in an.items():
            an_rows[i].setdefault(cls_n[k], []).append((k, -v * fn))
        # the b whose column of am meets class c
        meets = [[] for _ in ids]
        for b, col in enumerate(am_cols):
            for c in col:
                meets[c].append(b)
        for i, ci in enumerate(cls_n):
            base, an_row = i * dm, an_rows[i]
            bs = set(meets[ci]).union(*(members[c] for c in an_row))
            for b in sorted(bs):
                first, second = am_cols[b].get(ci), an_row.get(cls_m[b])
                row = {base + j: v for j, v in first or ()}
                for k, v in second or ():
                    u = k * dm + b
                    nv = row.get(u, 0) + v
                    if nv:
                        row[u] = nv
                    else:
                        del row[u]
                if row:
                    rows.append(row)
    return rows, live


def hom_basis(m, n):
    """A basis of all T with T rho_M(g) = rho_N(g) T, in echelon normal
    form: the kernel of hom_rows(m, n) over its live unknowns, solved as
    one sparse system; every unknown that is not live is 0."""
    rows, live = hom_rows(m, n)
    dm, dn = m.dim, n.dim
    return [_normalized(dn, dm, {divmod(u, dm): v for u, v in vec.items()},
                        den)
            for vec, den in _rref_kernel(*_echelon(rows), live)]


def radical_vectors(m):
    """Basis of rad(M) = J(A).M: its reduced echelon basis, each vector
    scaled to a primitive integer vector, positive at its pivot (its least
    index)."""
    return _echelon([col for jvec in algebra_radical(m.algebra) for col
                     in m.elem_action(jvec).transpose().int_rows()])[1]


def socle_vectors(m):
    """Basis of soc(M) = {v : J(A).v = 0}."""
    rows = []
    for jvec in algebra_radical(m.algebra):
        rows.extend(m.elem_action(jvec).int_rows())
    return kernel_dicts(rows, m.dim)


def submodule(m, vectors):
    """Submodule spanned by the given sparse vectors, which must span one.

    Returns (sub, inclusion): the inclusion's columns are the reduced
    echelon basis of the span of the vectors -- each 1 at its pivot, its
    least index, and 0 at the other pivots -- and each generator acts on
    sub by the coordinates of rho(g) . inclusion in that basis.  Raises
    NoSolution when the span is not a submodule.
    """
    cols, rows = _echelon([_scaled(v)[0] for v in vectors])
    # basis vector k is pivot row k over its pivot entry
    incl = _int_columns(m.dim, [(r, r[c]) for c, r in zip(cols, rows)])
    actions = {lbl: span_coordinates(incl, m.actions[lbl] * incl)
               for lbl, _ in m.algebra.generators}
    return ModuleRep(m.algebra, len(cols), actions), incl


def quotient_module(m, vectors):
    """Quotient of M by the submodule spanned by the sparse integer
    vectors, which it consumes, as ratlin._echelon does.

    Returns (quot, projection) with projection a (dim quot) x (dim M)
    matrix; the quotient carrier is the non-pivot coordinates of the
    reduced echelon basis of the subspace.
    """
    cols, rows = _echelon(vectors)
    lead = lcm(*[r[c] for c, r in zip(cols, rows)])
    pivots = set(cols)
    free = [j for j in range(m.dim) if j not in pivots]
    d = len(free)
    pos = {j: k for k, j in enumerate(free)}
    # e_j mod the span: e_j itself for a free j, e_c - b_c for a pivot c,
    # where b_c = r / r[c] is 0 at the other pivots; all over lead
    data = {(k, j): lead for k, j in enumerate(free)}
    for c, r in zip(cols, rows):
        f = lead // r[c]
        for j, v in r.items():
            if j != c:
                data[(pos[j], c)] = -v * f
    proj = _normalized(d, m.dim, data, lead)
    actions = {}
    for lbl, _ in m.algebra.generators:
        ints, den = (proj * m.actions[lbl]).int_form()
        actions[lbl] = _normalized(d, d, {(i, pos[j]): v for (i, j), v
                                          in ints.items() if j in pos}, den)
    return ModuleRep(m.algebra, d, actions), proj


# ---------------------------------------------------------------------
# DK1 <-> K2 transport, and the split of a DK1 module by bc


def in_r0(m):
    """True when the two group-likes of DK1 act identically on M."""
    if m.algebra.name != "DK1":
        raise InvalidLabel("in_r0 applies to DK1 modules only")
    return m.actions["b"] == m.actions["c"]


def restrict_pi(m):
    """View a DK1 module with equal group-like actions as a K2 module."""
    if not in_r0(m):
        raise NotInR0("the two group-likes act differently on this module")
    return ModuleRep(build_km(2), m.dim, {
        "K": m.actions["b"],
        "x1": m.actions["a"],
        "x2": m.actions["d"],
    })


def inflate_pi(m):
    """Inflate a K2 module to DK1 along the quotient map (both group-likes
    act as K)."""
    if m.algebra.name != "K2":
        raise InvalidLabel("inflate_pi applies to K2 modules only")
    return ModuleRep(build_dk1(), m.dim, {
        "a": m.actions["x1"],
        "b": m.actions["K"],
        "c": m.actions["K"],
        "d": m.actions["x2"],
    })


def pivot(m):
    """The action of the pivotal group-like: K, or b over DK1."""
    return m.actions["b" if m.algebra.name == "DK1" else "K"]


def _bc_blocks(m):
    """A DK1 module split by its central involution bc, as
    (k2, st, incl_k2, incl_st).

    bc is central, so its +1 and -1 eigenspaces are submodules, M is their
    direct sum, and no DK1 map runs between them.  On the +1 block
    c = b^-1 = b, so it is in r0 and k2 is its restriction to K2: a DK1
    map between such blocks is a K2 map between their restrictions.  The
    -1 block st is a sum of the Steinberg modules St(0) and St(1), which
    are simple and projective.  incl_k2 and incl_st are the inclusions
    into M.
    """
    plus, minus = _k_eigen_split(m.actions["b"] * m.actions["c"], m.dim)
    k2, incl_k2 = submodule(m, [vec for vec, _ in plus])
    st, incl_st = submodule(m, [vec for vec, _ in minus])
    return restrict_pi(k2), st, incl_k2, incl_st


# ---------------------------------------------------------------------
# projective covers


_principal_proj_cache = {}


def principal_projective(algebra, r):
    """P(r) = A.e_r for a K-type algebra, e_r = (1 + (-1)^r K)/2."""
    key = (algebra.name, r)
    if key in _principal_proj_cache:
        return _principal_proj_cache[key]
    half = Rat(1, 2)
    e = {algebra.index[()]: half,
         algebra.index[(0,)]: half if r == 0 else -half}
    # A.e_r is spanned by the products w e_r with the basis words w
    sub, incl = submodule(regular_module(algebra),
                          [algebra.multiply({k: ONE}, e)
                           for k in range(algebra.dim)])
    # remember the algebra elements realizing the canonical basis
    _principal_proj_cache[key] = (sub, incl)
    return sub, incl


@lru_cache(maxsize=None)
def steinberg_module(r):
    """St(r) over DK1 on the basis (v, dv/2), v in ker a with bv = (-1)^r v:
    simple and projective, with c = -b (see _steinberg_parities)."""
    sign = ONE if r == 0 else -ONE
    return ModuleRep(build_dk1(), 2, {
        "b": RatMatrix.diagonal([sign, -sign]),
        "c": RatMatrix.diagonal([-sign, sign]),
        "a": RatMatrix(2, 2, {(0, 1): ONE}),
        "d": RatMatrix(2, 2, {(1, 0): Rat(2)}),
    })


def _steinberg_parities(st):
    """The parities r_1..r_k of a DK1 module st on which bc = -1, checked
    by one witness g: St(r_1) + ... + St(r_k) -> st.

    On st, c = -b, d^2 = 0 and ad + da = 1 - bc = 2, so each v in ker a
    with bv = (-1)^r v spans St(r) on the basis (v, dv/2).  One kernel
    solve per sign finds the v; GreenRingError unless g = [v_1, dv_1/2,
    v_2, ...] is square, of full rank, and intertwines every generator.
    """
    a, b, d = (st.actions[g] for g in "abd")
    ident = RatMatrix.identity(st.dim)
    parities, vecs = [], []
    for r, shift in ((0, -ident), (1, ident)):
        kernel = _rref_kernel(*_echelon(a.int_rows() + (b + shift).int_rows()),
                              range(st.dim))
        parities += [r] * len(kernel)
        vecs += kernel
    v = _int_columns(st.dim, vecs)
    g = RatMatrix.from_columns([c for pair in zip(
        v.col_dicts(), (d * v).scale(Rat(1, 2)).col_dicts()) for c in pair],
        st.dim)
    sts = direct_sum([steinberg_module(r) for r in parities], st.algebra)
    if not (g.cols == st.dim == g.rank() and all(
            st.actions[x] * g == g * sts.actions[x] for x in "abcd")):
        raise GreenRingError(f"the bc = -1 block of dimension {st.dim} is "
                             "not a sum of Steinberg modules")
    return parities


def _k_halves(k_act):
    """[(I + K)/2, (I - K)/2]: for an involution K, the projections onto
    its +1 and its -1 eigenspace."""
    ident = RatMatrix.identity(k_act.rows)
    return [(ident + k_act.scale(c)).scale(Rat(1, 2)) for c in (ONE, -ONE)]


def _k_eigen_split(mat, dim):
    """Eigenvectors of an involution matrix, as (plus_basis, minus_basis):
    the kernels of mat - I and mat + I in normal form, each vector an
    (ints, den) pair of ratlin._rref_kernel.  Raises GreenRingError when
    the two do not span, so mat is no involution."""
    ident = RatMatrix.identity(dim)
    plus, minus = (_rref_kernel(*_echelon((mat + s).int_rows()), range(dim))
                   for s in (-ident, ident))
    if len(plus) + len(minus) != dim:
        raise GreenRingError(
            "a group-like does not act as an involution: its +1 and -1 "
            f"eigenspaces span {len(plus) + len(minus)} of {dim} dimensions")
    return plus, minus


def _k_eigenbasis(m):
    """M in a basis of K-eigenvectors, the +1 block first; M itself when K
    is already diagonal.

    The basis change is P = [ker(K - I) | ker(K + I)].  Each kernel vector
    is in normal form: 1 at its free column f (its last nonzero entry) and
    0 at the other free columns of its kernel.  So the coordinate of x
    along it is entry f of the eigencomponent (x +- Kx)/2, and the rows of
    P^-1 are rows of (I + K)/2 and (I - K)/2: no elimination is needed.
    Both P and P^-1 are built from integer rows.
    """
    change = _k_eigen_change(m)
    if change is None:
        return m
    p_inv, p = change
    return ModuleRep(m.algebra, m.dim, {lbl: p_inv * a * p
                                        for lbl, a in m.actions.items()})


def _k_eigen_change(m):
    """(P^-1, P) for the basis change P of _k_eigenbasis; None when K is
    already diagonal."""
    k_act = m.actions["K"]
    if all(i == j for i, j in k_act.int_form()[0]):
        return None
    plus, minus = _k_eigen_split(k_act, m.dim)
    halves = _k_halves(k_act)
    den = lcm(*[h.int_form()[1] for h in halves])
    rows = []  # the rows of P^-1, as integers over den
    for half, vecs in zip(halves, (plus, minus)):
        half_rows, f = half.int_rows(), den // half.int_form()[1]
        rows += [{j: v * f for j, v in half_rows[max(vec)].items()}
                 for vec, _ in vecs]
    p_inv = _normalized(m.dim, m.dim, {(i, j): v for i, row in enumerate(rows)
                                       for j, v in row.items()}, den)
    return p_inv, _int_columns(m.dim, plus + minus)


def projective_cover(m):
    """Projective cover (P, cover map) of a nonzero module.

    P matches the simple multiplicities of M / rad M and the cover is a
    surjective intertwiner with kernel inside rad P.
    """
    if m.dim == 0:
        raise ValueError("zero module has no projective cover")
    if m.algebra.name != "DK1":
        return _projective_cover_ktype(m)
    # the Steinberg block is projective, so it covers itself
    k2, st, incl_k2, incl_st = _bc_blocks(m)
    p, cov = _projective_cover_ktype(k2)
    return direct_sum([inflate_pi(p), st]), (incl_k2 * cov).hstack(incl_st)


def _projective_cover_ktype(m):
    algebra = m.algebra
    rad = radical_vectors(m)
    pivots = {min(v) for v in rad}  # read before quotient_module eats rad
    head, _ = quotient_module(m, rad)
    plus, minus = _k_eigen_split(head.actions["K"], head.dim)
    free = [j for j in range(m.dim) if j not in pivots]
    halves = _k_halves(m.actions["K"])
    pieces = []
    cover_blocks = []
    for r, eigvecs in ((0, plus), (1, minus)):
        proj_mod, incl = principal_projective(algebra, r)
        for hv, hden in eigvecs:
            # lift the head eigenvector, then project onto the K-eigenspace
            v = halves[r].apply({free[k]: Rat(x, hden)
                                 for k, x in hv.items()})
            # each basis vector of P(r), as an algebra element, applied to v
            cols = [m.elem_action(bcol).apply(v) for bcol in incl.col_dicts()]
            cover_blocks.append(RatMatrix.from_columns(cols, m.dim))
            pieces.append(proj_mod)
    p = direct_sum(pieces, algebra=algebra)
    cov = cover_blocks[0] if cover_blocks else RatMatrix.zeros(m.dim, 0)
    for b in cover_blocks[1:]:
        cov = cov.hstack(b)
    if cov.rank() != m.dim:
        raise GreenRingError("projective cover map failed to be surjective")
    return p, cov


def injective_hull(m):
    """Injective hull via duality: (I, embedding M -> I).

    The transpose of the cover P -> M* is a map out of the double dual,
    which carries the S^2-twisted action; S^2 is conjugation by the
    grouplike, so composing with its action gives the embedding M -> P*.
    """
    p, cov = projective_cover(dual(m))
    return dual(p), cov.transpose() * pivot(m)


# ---------------------------------------------------------------------
# decomposition


def _top_word_index(algebra):
    """Index of the full odd word x1...xm of a K-type algebra."""
    mgen = len(algebra.gen_labels) - 1
    return algebra.index[tuple(range(1, mgen + 1))]


def _peel_projectives(m):
    """Split off the free part of a K-type module whose K is diagonal.

    Returns (projective_summands, remainder_module): one canonical P(r)
    per free summand, and the quotient by the free part; valid because
    the algebra is self-injective, so the generated free submodule
    splits off.

    decompose moves M to a K-eigenbasis first; a K that is not diagonal
    raises GreenRingError.  Then each e_j is a K-eigenvector, and A.e_j is
    free -- P(0) when K e_j = e_j, P(1) when K e_j = -e_j -- exactly when
    column j of top is nonzero: the preimage of pivot column j of top is
    e_j.  One e_j is taken per pivot column of top, which picks each
    column that is independent of the ones before it.
    """
    algebra = m.algebra
    k_act = m.actions["K"]
    if any(i != j for i, j in k_act.int_form()[0]):
        raise GreenRingError("the projective peel needs a diagonal K")
    top = m.word_action(_top_word_index(algebra))
    if top.is_zero():
        return [], m
    # the columns of the odd words, x-words with no K, span each A.e_j
    odd = [m.word_action(k).transpose().int_rows()
           for k, word in enumerate(algebra.words) if 0 not in word]
    pivots = _echelon(top.int_rows(), reduced=False)[0]
    remainder, _ = quotient_module(m, [cols[j] for j in pivots
                                       for cols in odd])
    if remainder.dim != m.dim - len(pivots) * len(odd):
        raise GreenRingError("free submodule has wrong dimension")
    k_diag, _ = k_act.int_form()  # a positive multiple of K
    return [principal_projective(algebra, 0 if k_diag[j, j] > 0 else 1)[0]
            for j in pivots], remainder


def decompose(m):
    """Indecomposable direct summands of M (a list of ModuleRep).

    Over K2 these are the peeled P(r) and the canonical Kronecker blocks
    of the remainder (kronecker_route), certified by its witness; over DK1
    the same for the bc = 1 block plus the Steinberg copies; over the
    other K-type algebras the remainder goes to the meataxe.
    """
    if m.dim == 0:
        return []
    if m.algebra.name == "DK1":
        k2, st, _, _ = _bc_blocks(m)
        return ([inflate_pi(s) for s in decompose(k2)]
                + [steinberg_module(r) for r in _steinberg_parities(st)])
    if m.algebra.name == "K2":
        summands, shapes, _ = kronecker_route(m)
        return summands + [kronecker_block(s) for s in shapes]
    if m.algebra.name.startswith("K"):
        m = _k_eigenbasis(m)
        summands, rest = _peel_projectives(m)
        if summands:
            return summands + decompose(rest)
    return _meataxe(m)


# ---------------------------------------------------------------------
# the Kronecker route: K2 modules with no free part


def kronecker_route(m):
    """A K2 module split as (projectives, shapes, g), checked.

    M is moved to a K-eigenbasis, its free part is peeled off
    (_peel_projectives), and the remainder rest is split by
    _kronecker_split; the split is returned only after check_witness has
    found rest.actions[x] * g == g * (+) kronecker_block(s) for the s in
    shapes.  With no free part, rest is M in its K-eigenbasis.
    """
    summands, rest = _peel_projectives(_k_eigenbasis(m))
    shapes, g = _kronecker_split(rest)
    check_witness(rest, g, [kronecker_block(s) for s in shapes])
    return summands, shapes, g


def check_witness(m, g, blocks):
    """GreenRingError unless g is an invertible intertwiner from the direct
    sum of the modules blocks to M: g is square of full rank and
    m.actions[x] * g == g * (+) blocks[i].actions[x] for every generator."""
    target = direct_sum(blocks, m.algebra)
    if not (g.rows == g.cols == m.dim == target.dim and g.rank() == m.dim
            and all(m.actions[x] * g == g * target.actions[x]
                    for x, _ in m.algebra.generators)):
        raise GreenRingError(f"the basis change of a dim-{m.dim} module "
                             "fails its witness check")


def kronecker_block(shape):
    """The canonical K2 module of a Kronecker block (kind, sign, size, eta):
    the head vectors first, on which K is sign, then the radical vectors.

    - ("L", sign, e, None): heads v_0..v_e and radical w_1..w_e, x1 v_k =
      w_k = x2 v_(k-1), x1 v_0 = x2 v_e = 0; V(r) for e = 0, else O(+e, r).
    - ("LT", sign, e, None): heads u_1..u_e and radical t_0..t_e, x1 u_k =
      t_k and x2 u_k = t_(k-1); O(-e, r).
    - ("M", sign, n, eta): heads a_1..a_n and radical b_1..b_n; x1 a_i =
      b_i and x2 a_i = eta b_i + b_(i-1) for a rational eta, x2 a_i = b_i
      and x1 a_i = b_(i-1) for eta None, the point at infinity; M(n, r,
      eta).

    indec.realize builds every label but P(r) this way.
    """
    kind, sign, size, eta = shape
    heads = size + 1 if kind == "L" else size
    dim = heads + (size + 1 if kind == "LT" else size)
    x1, x2 = {}, {}
    if kind == "L":
        for k in range(1, size + 1):
            x1[(size + k, k)] = x2[(size + k, k - 1)] = 1
    elif kind == "LT":
        for k in range(1, size + 1):
            x1[(size + k, k - 1)] = x2[(size + k - 1, k - 1)] = 1
    elif eta is None:
        for i in range(size):
            x2[(size + i, i)] = 1
            if i:
                x1[(size + i - 1, i)] = 1
    else:
        for i in range(size):
            x1[(size + i, i)] = 1
            if eta:
                x2[(size + i, i)] = eta
            if i:
                x2[(size + i - 1, i)] = 1
    k_diag = [sign] * heads + [-sign] * (dim - heads)
    return ModuleRep(build_km(2), dim, {"K": RatMatrix.diagonal(k_diag),
                                        "x1": RatMatrix(dim, dim, x1),
                                        "x2": RatMatrix(dim, dim, x2)})


def _kronecker_split(m):
    """(shapes, g) for a K2 module M with diagonal K and no free part: g's
    columns are, block by block, the head and then the radical vectors of
    the Kronecker blocks kronecker_block(s), s in shapes.

    x1 x2 acts as zero on M (GreenRingError otherwise), so rad^2 = 0: rad M
    is spanned by the columns of x1 and x2, the head coordinates (those
    that are no pivot of rad M) span a K-stable complement H, and M is the
    sum over the signs sigma of K of H_sigma + x.H_sigma.  Each summand is
    the pencil (x1, x2): H_sigma -> rad M, split by _pencil_blocks; the
    radical vectors of a block are x1 and x2 applied to its heads.  All of
    it runs on integers: x1 and x2 are scaled by one common denominator,
    which scales each block's columns alike.
    """
    x1, x2 = m.actions["x1"], m.actions["x2"]
    if not (x1 * x2).is_zero():
        raise GreenRingError("x1 x2 acts nonzero on a module with no free "
                             "part")
    d = m.dim
    (i1, d1), (i2, d2) = x1.int_form(), x2.int_form()
    den = lcm(d1, d2)
    cols1, cols2 = [{} for _ in range(d)], [{} for _ in range(d)]
    for ints, f, cols in ((i1, den // d1, cols1), (i2, den // d2, cols2)):
        for (i, j), v in ints.items():
            cols[j][i] = v * f
    pivots = set(_echelon([dict(c) for c in cols1 + cols2 if c],
                          reduced=False)[0])
    k_diag, _ = m.actions["K"].int_form()
    positive = [k_diag.get((j, j), 0) > 0 for j in range(d)]
    shapes, columns = [], []
    for sign in (True, False):
        hs = [j for j in range(d) if j not in pivots and positive[j] == sign]
        q = sum(positive[j] != sign for j in pivots)
        for kind, size, eta, heads in _pencil_blocks(
                [cols1[j] for j in hs], [cols2[j] for j in hs], q):
            heads = [{hs[j]: v for j, v in h.items()} for h in heads]
            if kind == "L":
                rad = [_lin(cols1, h) for h in heads[1:]]
            elif kind == "LT":
                rad = [_lin(cols2, heads[0])] + [_lin(cols1, h)
                                                 for h in heads]
            else:
                rad = [_lin(cols1 if eta is not None else cols2, h)
                       for h in heads]
            shapes.append((kind, 1 if sign else -1, size, eta))
            columns += [{i: v * den for i, v in h.items()} for h in heads]
            columns += rad
    if len(columns) != d:
        raise GreenRingError(f"the Kronecker blocks of a dim-{d} module "
                             f"span {len(columns)} vectors")
    return shapes, _int_columns(d, [(c, 1) for c in columns])


def _lin(vecs, coeffs):
    """sum of coeffs[i] * vecs[i], for sparse dicts coeffs and vecs[i]: the
    image of coeffs under the map whose columns are vecs."""
    out = {}
    for j, c in coeffs.items():
        for i, w in vecs[j].items():
            out[i] = out.get(i, 0) + c * w
    return {i: w for i, w in out.items() if w}


def _solve(images, targets=()):
    """(solutions, kernel) for sparse integer vectors, from one _echelon
    call: solutions[t] = (a, den) with sum a[j] images[j] = den targets[t],
    a 0 at the free columns; kernel a basis of the relations among the
    images, in normal form (_rref_kernel) up to scale, so a relation whose
    free column is f meets only images[0..f].  Raises GreenRingError when a
    target is outside the span."""
    k = len(images)
    rows = {}
    for j, vec in enumerate(chain(images, targets)):
        f = 1 if j < k else -1
        for i, v in vec.items():
            rows.setdefault(i, {})[j] = f * v
    ncols = k + len(targets)
    pivot_cols, pivot_rows = _echelon(list(rows.values()))
    if pivot_cols and pivot_cols[-1] >= k:
        raise GreenRingError("a vector is outside the span it is solved in")
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    solutions, kernel = [], []
    for f, (vec, kden) in zip(free, _rref_kernel(pivot_cols, pivot_rows,
                                                 range(ncols))):
        a = {j: v for j, v in vec.items() if j < k}
        if f < k:
            kernel.append(a)
        else:
            solutions.append((a, kden))
    return solutions, kernel


def _extend(chain_, vecs, solution):
    """Append sum a[j] vecs[j] / den to the chain of integer vectors, for
    solution = (a, den), scaling the whole chain by den to stay integral."""
    a, den = solution
    if den != 1:
        chain_[:] = [{i: v * den for i, v in w.items()} for w in chain_]
    chain_.append(_lin(vecs, a))


def _basis(vecs):
    """A basis of the span of the sparse integer vectors: their reduced
    echelon basis, as primitive integer vectors."""
    return _echelon([dict(v) for v in vecs if v])[1]


def _preimage(cols, basis):
    """A basis of {v : A v in span(basis)}, A the map with columns cols."""
    p = len(cols)
    kernel = _solve(list(cols) + list(basis))[1]
    return _basis([{j: c for j, c in v.items() if j < p} for v in kernel])


def _wong(e_cols, f_cols, cap):
    """(levels, images): the Wong sequence X_1 = ker E, X_(k+1) = E^-1(F
    X_k) of the pencil (E, F), given by its integer columns, with levels[k]
    a basis of X_(k+1) and images[k] its image under F.  It stops where it
    stops growing or reaches cap dimensions."""
    levels = [_solve(e_cols)[1]]
    images = [[_lin(f_cols, x) for x in levels[0]]]
    while 0 < len(levels[-1]) < cap:
        nxt = _preimage(e_cols, images[-1])
        if len(nxt) == len(levels[-1]):
            break
        levels.append(nxt)
        images.append([_lin(f_cols, x) for x in nxt])
    return levels, images


def _pencil_blocks(a1, a2, q):
    """The Kronecker blocks of the pencil (A1, A2): H -> T, given by their
    integer columns on H = Q^p, with A1 H + A2 H = T of dimension q: a
    list of (kind, size, eta, heads), heads the head vectors of
    kronecker_block((kind, sign, size, eta)) as sparse integer dicts over
    range(p), each block's chain scaled alike.

    The pencil is read in its own frame, by Wong sequences (Berger,
    Ilchmann and Trenn, SIAM J. Matrix Anal. Appl. 33, 2012).  The
    sequence X_1 = ker A1, X_(k+1) = A1^-1(A2 X_k) ends in the head of the
    L blocks and of the blocks at infinity, and one _chains pass reads
    both.  #L - #LT = p - q, one head more than radical on an L block, one
    less on an LT block, and as many on the rest.  The decreasing sequence
    Z_0 = H, Z_(k+1) = A2^-1(A1 Z_k) leaves out the LT blocks and the
    blocks at infinity and ends in Z*, the head of the L blocks and of the
    blocks at finite points; _lt_chains and _regular_chains read the rest
    off it.
    """
    p = len(a1)
    if not p:
        return []
    blocks = _chains(a1, a2, None, [], p)
    hl = [h for *_, heads in blocks for h in heads]
    n_lt = sum(kind == "L" for kind, *_ in blocks) - (p - q)
    infinite = sum(size for kind, size, *_ in blocks if kind == "M")
    zs = [[{j: 1} for j in range(p)]]
    if n_lt or infinite:
        zs.append(_preimage(a2, a1))
        while len(zs[-1]) < len(zs[-2]):
            zs.append(_preimage(a2, [_lin(a1, z) for z in zs[-1]]))
        if n_lt:
            blocks += _lt_chains(a1, a2, zs, _preimage(a1, a2))
    return blocks + _regular_chains(a1, a2, hl, zs[-1], infinite)


def _lt_chains(a1, a2, zs, y):
    """The LT blocks, from the flag Z_0 > Z_1 > ... > Z* and y = A1^-1(A2 H).

    On a block LT_e with chain A1 u_(j-1) = A2 u_j, Z_k meets it in
    u_(k+1) .. u_e and y in u_1 .. u_(e-1); so an end u_e of a block of
    size e lies in Z_(e-1) but not in Z_e + y.  The chains are read
    top-down: at each level k one _solve takes every live chain down to a
    u_(j-1) in Z_k with A1 u_(j-1) = A2 u_j, which exists because A2
    Z_(k+1) lies in A1 Z_k.  Solving over all of H could pick up the bottom
    of an M(1, r, infinity) block, whose image under A2 is outside A1 H.
    """
    span = SpanRREF()
    for v in y + zs[-1]:
        span.add(v)
    chains = []  # each end first
    for k in range(len(zs) - 2, -1, -1):
        if chains:
            for ch, sol in zip(chains, _solve(
                    [_lin(a1, z) for z in zs[k]],
                    [_lin(a2, ch[-1]) for ch in chains])[0]):
                _extend(ch, zs[k], sol)
        chains += [[v] for v in zs[k] if span.add(v)]
    return [("LT", len(ch), None, ch[::-1]) for ch in chains]


def _regular_chains(a1, a2, hl, z, infinite):
    """The M blocks at the finite points eta, read off the Wong sequence at
    eta (_chains).

    hl spans the head of the L blocks and of the blocks at infinity, and z
    the head of the L blocks and of the regular part R at finite points;
    the blocks at infinity have `infinite` head dimensions, which the
    Unclassified error counts in the regular part.  On R, modulo the L
    head, A1 is invertible, and Phi = A1^-1 A2 is an n x n matrix whose
    eigenvalues are the points eta.  Phi only finds the points: tr(Phi)/n
    is tried first, the one eigenvalue when there is one; the others are
    the rational roots of the minimal polynomial.  Raises Unclassified when
    they leave part of R over, at points of P^1 with no rational
    representative.
    """
    span = SpanRREF()
    for v in hl:
        span.add(v)
    rp = [v for v in z if span.add(v)]
    n = len(rp)
    if not n:
        return []
    l = len(hl)
    # column k of Phi: the coordinates on rp of A1^-1 A2 rp[k], mod hl
    coords = _solve([_lin(a1, v) for v in hl + rp],
                    [_lin(a2, r) for r in rp])[0]
    phi = _int_columns(n, [({i - l: v for i, v in a.items() if i >= l}, den)
                           for a, den in coords])
    trace = phi.trace() / n
    blocks = []
    if (phi - RatMatrix.identity(n).scale(trace)).rank() < n:
        blocks = _chains(a1, a2, trace, hl, n)
    covered = sum(size for _, size, _, _ in blocks)
    if covered == n:
        return blocks
    minimal = minimal_polynomial(phi)
    roots = rational_roots(minimal)
    for root in roots:
        if root != trace:
            blocks += _chains(a1, a2, root, hl, n - covered)
            covered = sum(size for _, size, _, _ in blocks)
    if covered < n:
        # the closed points of degree > 1 are the irrational factors of the
        # squarefree part of the minimal polynomial
        degree = len(squarefree_part(minimal)) - 1 - len(roots)
        raise Unclassified(
            f"a regular part of dimension {n + infinite} has {n - covered} "
            "dimensions at points of P^1 with no rational representative: "
            f"their residue field has degree {degree} over Q, summed over "
            "those points; the labels name only modules whose residue field "
            "is Q")
    return blocks


def _chains(a1, a2, eta, hl, size):
    """The blocks read off the Wong sequence at the point eta (None at
    infinity), at which the regular part has at most size dimensions
    outside the span of hl.

    With E = A2 - eta A1 and F = A1 (E = A1 and F = A2 at infinity), a chain
    of M(n, r, eta) is E a_1 = 0, E a_i = F a_(i-1).  At infinity an L
    block is such a chain too, A1 v_0 = 0, A1 v_k = A2 v_(k-1), whose top
    is also in ker A2.  The Wong sequence X_1 = ker E, X_(k+1) = E^-1(F
    X_k) meets each of these blocks in the first k vectors of its chain,
    and ends in them and in the L head.  So the chains are read top-down:
    the tops at level k are the vectors of X_k independent of hl, of
    X_(k-1) and of the longer chains at that level, and one _solve takes
    every live chain down a level, by an a_(k-1) in X_(k-1) with F a_(k-1)
    = E a_k, which the sequence guarantees.  At infinity the tops in ker A2
    are taken first, and head L blocks of size len - 1; every other top
    heads an M block.  a_1 lies in ker E, so every chain is exact, L-head
    parts and all.
    """
    if eta is None:
        e_cols, f_cols = a1, a2
    else:  # (b A2 - a A1) a_i = b A1 a_(i-1) for eta = a/b
        e_cols = [_lin((v, u), {0: eta.denominator, 1: -eta.numerator})
                  for v, u in zip(a2, a1)]
        f_cols = [{i: t * eta.denominator for i, t in u.items()} for u in a1]
    levels, images = _wong(e_cols, f_cols, len(hl) + size)
    chains = []  # (kind, chain), each top first
    for k in range(len(levels) - 1, -1, -1):
        rels = ()
        if chains or eta is None:
            sols, rels = _solve(images[k], [_lin(e_cols, ch[-1])
                                            for _, ch in chains])
            for (_, ch), sol in zip(chains, sols):
                _extend(ch, levels[k], sol)
        span = SpanRREF()
        for v in chain(hl, levels[k - 1] if k else (),
                       (ch[-1] for _, ch in chains)):
            span.add(v)
        if eta is None:  # the relations among images[k] give ker A2
            chains += [("L", [v]) for v in (_lin(levels[k], r) for r in rels)
                       if span.add(v)]
        chains += [("M", [v]) for v in levels[k] if span.add(v)]
    return [(kind, len(ch) - (kind == "L"), eta, ch[::-1])
            for kind, ch in chains]


def _meataxe(m):
    """End(M)-driven decomposition of a module with no free part: M is
    indecomposable when End(M)/rad is Q (the local-End certificate), and
    every other M goes to _meataxe_idempotent."""
    endos = hom_basis(m, m)
    if len(endos) == 1:
        return [m]
    rad = trace_form_radical(endos)
    if len(endos) - len(rad) == 1:
        return [m]
    return _meataxe_idempotent(m, endos, rad)


def _fitting_split(m, theta):
    """M as (stable image, stable kernel) of the endomorphism theta, or
    None when theta is nilpotent or invertible."""
    # any exponent >= dim gives the stable image and kernel
    n = theta.power(2 ** (m.dim - 1).bit_length())
    if not 0 < n.rank() < m.dim:
        return None
    # the kernel vectors as integers: scaling a vector keeps the span
    kernel = _rref_kernel(*_echelon(n.int_rows()), range(m.dim))
    return (submodule(m, n.transpose().int_rows())[0],
            submodule(m, [vec for vec, _ in kernel])[0])


def _meataxe_idempotent(m, endos, rad):
    """Split M, whose End(M)/rad is not Q, at a rational eigenvalue of a
    sample of End(M)/rad: a basis b_1..b_q, then b_i + b_j and b_i - b_j
    for each pair i < j; a split depends only on theta mod rad.

    rad, the radical of End(M) in normal form in coordinates of the endos,
    is 1 at its free columns, so the other endos map to a basis of
    End(M)/rad.  A b_i - b_j can have a rational eigenvalue when no b_i
    and no b_i + b_j has one.
    """
    free = {max(r) for r in rad}
    basis = [e for k, e in enumerate(endos) if k not in free]
    q = len(basis)
    pairs = (t for i, a in enumerate(basis) for b in basis[i + 1:]
             for t in (a + b, a - b))
    for theta in chain(basis, pairs):
        parts = _split_idempotent(m, theta, q)
        if parts:
            return decompose(parts[0]) + decompose(parts[1])
    raise NonSplitField(
        "no sampled endomorphism splits M at a rational eigenvalue, and "
        f"dim End(M)/rad = {q} is too large to certify that M is "
        "indecomposable")


def _split_idempotent(m, theta, q):
    """M split at a rational eigenvalue of the endomorphism theta, or None.

    End(M)/rad is semisimple over Q, so the minimal polynomial p of the
    image of theta there is squarefree: it is the squarefree part of the
    minimal polynomial of theta on M, which divides a power of p.
    - A rational root lambda of a p of degree >= 2 makes theta - lambda
      neither nilpotent nor invertible, so its Fitting split is proper;
      the projection onto the generalized lambda-eigenspace is the
      idempotent.  Whether 0 is a root is read off p(0), with no search.
    - If p has degree q = dim End(M)/rad, then Q[theta] is all of
      End(M)/rad.  For q <= 3 with no rational root, p is irreducible, so
      End(M)/rad is a field and M is indecomposable, with a residue field
      larger than Q: no label names it, and Unclassified says so.
    """
    p = squarefree_part(minimal_polynomial(theta))
    roots = rational_roots(p) if p[0] else [ZERO]
    if roots and len(p) > 2:
        shift = RatMatrix.identity(m.dim).scale(roots[0])
        return _fitting_split(m, theta - shift)
    if not roots and len(p) - 1 == q <= 3:
        raise Unclassified(
            f"a dim-{m.dim} module is indecomposable over Q, but its "
            f"endomorphism residue field has degree {q} over Q; the labels "
            "name only modules whose residue field is Q")
    return None


# ---------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(m, n):
    """(bool, witness): an invertible intertwiner M -> N if one exists.

    One of M and N must be indecomposable; then a basis of Hom(M, N)
    holds an isomorphism whenever one exists.  For if phi: M -> N is one,
    End(M) is local, so the maps in Hom(M, N) that are not isomorphisms
    form the proper subspace phi rad End(M), and no basis lies inside a
    proper subspace.  The same module object is isomorphic to itself by
    the identity.
    """
    if m.algebra.name != n.algebra.name or m.dim != n.dim:
        return False, None
    if m.dim == 0:
        return True, RatMatrix.zeros(0, 0)
    if m is n:
        return True, RatMatrix.identity(m.dim)
    for t in hom_basis(m, n):
        if t.rank() == m.dim:
            return True, t
    return False, None
