"""Modules over the structure-constant algebras.

A module is one action matrix per algebra generator; everything else --
tensor products through the coproduct, duals through the antipode, hom
spaces, radical/socle, projective covers and the full decomposition into
indecomposables -- is exact linear algebra on those matrices.

Decomposition strategy: over K2-type algebras M is first moved to a
K-eigenbasis (K^2 = 1, so the two eigenspaces span M).  Summands inherit
the diagonal K, because in such a basis the reduced echelon basis of a
K-stable subspace is the union of those of its two eigenspace parts; so
every hom system solved under decompose gets forced zeros.  Then the
projective summands are split off (the top odd word acts nonzero exactly
on them, and the free part, spanned by the odd words applied to
preimages of its image, splits because the algebra is self-injective);
the remainder is handled by the endomorphism-algebra meataxe: the
trace-form radical of End(M) certifies indecomposable
modules (End(M) local), the others are split by Fitting splits on
sampled endomorphisms, and, when none of those splits, by a Fitting
split at a rational eigenvalue found by the rational-root test.  Over
DK1 the central involution bc splits the module first.

Vectors are sparse dicts index -> Rat.  submodule and quotient_module take
vectors that already span a submodule, and read its basis off one reduced
echelon form (ratlin.span_basis).
"""

from __future__ import annotations

from math import lcm

from .errors import (AlgebraMismatch, GreenRingError, InvalidModule,
                     NonSplitField, OutOfRange, Unclassified)
from .hopf import build_km, get_algebra, jacobson_radical
from .ratlin import (ONE, Rat, RatMatrix, _echelon, block_diag,
                     kernel_basis, kernel_dicts, kronecker_product,
                     minimal_polynomial, rat_from_str, rat_to_str,
                     rational_roots, span_basis, span_coordinates,
                     squarefree_part)

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
            word = self.algebra.words[k]
            m = RatMatrix.identity(self.dim)
            for g in word:
                m = m * self.actions[self.algebra.gen_labels[g]]
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
    """Tensor product along the coproduct of the common algebra."""
    _same_algebra(m, n)
    a = m.algebra
    actions = {}
    for g, (lbl, _) in enumerate(a.generators):
        acc = RatMatrix.zeros(m.dim * n.dim, m.dim * n.dim)
        for (p, q), c in a.comult[a.index[(g,)]].items():
            acc = acc + kronecker_product(m.word_action(p),
                                          n.word_action(q)).scale(c)
        actions[lbl] = acc
    return ModuleRep(a, m.dim * n.dim, actions)


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


class HomBasis:
    """Basis of intertwiners source -> target, in echelon normal form."""

    def __init__(self, source, target, basis):
        self.source = source
        self.target = target
        self.basis = basis

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, k):
        return self.basis[k]


def hom_rows(m, n):
    """The intertwining constraints T rho_M(g) = rho_N(g) T, as sparse
    integer rows over the unknowns of T.

    T is vectorized row-major over (target row, source col), so unknown
    i * dim M + j is T[i, j]; Hom(M, N) is the kernel of these rows.
    """
    _same_algebra(m, n)
    dm, dn = m.dim, n.dim
    rows = {}
    for lbl, _ in m.algebra.generators:
        # T am - an T = 0, scaled to integer coefficients
        am, da = m.actions[lbl].int_form()
        an, dan = n.actions[lbl].int_form()
        den = lcm(da, dan)
        fm, fn = den // da, den // dan
        for (j, b), v in am.items():
            v *= fm
            for i in range(dn):
                key = (lbl, i, b)
                r = rows.setdefault(key, {})
                u = i * dm + j
                nv = r.get(u, 0) + v
                if nv:
                    r[u] = nv
                else:
                    del r[u]
        for (i, k), v in an.items():
            v *= fn
            for b in range(dm):
                key = (lbl, i, b)
                r = rows.setdefault(key, {})
                u = k * dm + b
                nv = r.get(u, 0) - v
                if nv:
                    r[u] = nv
                else:
                    del r[u]
    return list(rows.values())


def hom_basis(m, n):
    """All T with T rho_M(g) = rho_N(g) T, as a HomBasis: the kernel of
    hom_rows(m, n), solved as one sparse system."""
    rows = hom_rows(m, n)
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return HomBasis(m, n, [])
    basis = [RatMatrix(dn, dm, {divmod(u, dm): v for u, v in vec.items()})
             for vec in kernel_dicts(rows, dn * dm)]
    return HomBasis(m, n, basis)


def radical_vectors(m):
    """Basis of rad(M) = J(A).M, as a span_basis."""
    return span_basis([col for jvec in algebra_radical(m.algebra)
                       for col in m.elem_action(jvec).col_dicts()])


def socle_vectors(m):
    """Basis of soc(M) = {v : J(A).v = 0}."""
    rows = []
    for jvec in algebra_radical(m.algebra):
        rows.extend(m.elem_action(jvec).row_dicts())
    return kernel_dicts(rows, m.dim)


def submodule(m, vectors):
    """Submodule spanned by the given sparse vectors, which must span one.

    Returns (sub, inclusion): the inclusion's columns are the span_basis
    of the vectors, and each generator acts on sub by the coordinates of
    rho(g) . inclusion in that basis.  Raises NoSolution when the span is
    not a submodule.
    """
    basis = span_basis(vectors)
    incl = RatMatrix.from_columns(basis, m.dim)
    actions = {lbl: span_coordinates(incl, m.actions[lbl] * incl)
               for lbl, _ in m.algebra.generators}
    return ModuleRep(m.algebra, len(basis), actions), incl


def quotient_module(m, vectors):
    """Quotient of M by the submodule spanned by the sparse vectors.

    Returns (quot, projection) with projection a (dim quot) x (dim M)
    matrix; the quotient carrier is the non-pivot coordinates of the
    subspace's span_basis.
    """
    basis = span_basis(vectors)
    pivots = {min(b) for b in basis}
    free = [j for j in range(m.dim) if j not in pivots]
    d = len(free)
    pos = {j: k for k, j in enumerate(free)}
    # e_j mod the span: e_j itself for a free j, e_c - b_c for a pivot c
    data = {(k, j): ONE for k, j in enumerate(free)}
    for b in basis:
        c = min(b)
        for j, v in b.items():
            if j != c:
                data[(pos[j], c)] = -v
    proj = RatMatrix(d, m.dim, data)
    actions = {}
    for lbl, _ in m.algebra.generators:
        image = proj * m.actions[lbl]
        actions[lbl] = RatMatrix(d, d, {(i, pos[j]): v
                                        for (i, j), v in image.data.items()
                                        if j in pos})
    return ModuleRep(m.algebra, d, actions), proj


# ---------------------------------------------------------------------
# K2-type <-> DK1 transport (algebra-level; the r0 checks live in indec)


def dk1_as_k2_actions(m):
    """View a DK1 module with equal group-like actions as a K2 module."""
    return ModuleRep(build_km(2), m.dim, {
        "K": m.actions["b"],
        "x1": m.actions["a"],
        "x2": m.actions["d"],
    })


def k2_as_dk1_actions(m):
    """Inflate a K2 module to DK1 (both group-likes act as K)."""
    from .hopf import build_dk1
    return ModuleRep(build_dk1(), m.dim, {
        "a": m.actions["x1"],
        "b": m.actions["K"],
        "c": m.actions["K"],
        "d": m.actions["x2"],
    })


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


def _k_halves(k_act):
    """[(I + K)/2, (I - K)/2]: for an involution K, the projections onto
    its +1 and its -1 eigenspace."""
    ident = RatMatrix.identity(k_act.rows)
    return [(ident + k_act.scale(c)).scale(Rat(1, 2)) for c in (ONE, -ONE)]


def _k_eigen_split(mat, dim):
    """Eigenvectors of an involution matrix, as (plus_basis, minus_basis)."""
    ident = RatMatrix.identity(dim)
    plus = kernel_basis(mat - ident)
    minus = kernel_basis(mat + ident)
    return plus, minus


def _k_eigenbasis(m):
    """M in a basis of K-eigenvectors, the +1 block first; M itself when K
    is already diagonal.

    The basis change is P = [ker(K - I) | ker(K + I)].  Each kernel vector
    is in normal form: 1 at its free column f (its last nonzero entry) and
    0 at the other free columns of its kernel.  So the coordinate of x
    along it is entry f of the eigencomponent (x +- Kx)/2, and the rows of
    P^-1 are rows of (I + K)/2 and (I - K)/2: no elimination is needed.
    """
    k_act = m.actions["K"]
    if all(i == j for i, j in k_act.data):
        return m
    plus, minus = _k_eigen_split(k_act, m.dim)
    if len(plus) + len(minus) != m.dim:
        raise GreenRingError(
            "K does not act as an involution: its +1 and -1 eigenspaces "
            f"span {len(plus) + len(minus)} of {m.dim} dimensions")
    rows = []  # the rows of P^-1
    for half, vecs in zip(_k_halves(k_act), (plus, minus)):
        half_rows = half.row_dicts()
        rows += [half_rows[max(vec)] for vec in vecs]
    p_inv = RatMatrix(m.dim, m.dim, {(i, j): v for i, row in enumerate(rows)
                                     for j, v in row.items()})
    p = RatMatrix.from_columns(plus + minus, m.dim)
    return ModuleRep(m.algebra, m.dim, {lbl: p_inv * a * p
                                        for lbl, a in m.actions.items()})


def projective_cover(m):
    """Projective cover (P, cover map) of a nonzero module.

    P matches the simple multiplicities of M / rad M and the cover is a
    surjective intertwiner with kernel inside rad P.
    """
    if m.dim == 0:
        raise ValueError("zero module has no projective cover")
    if m.algebra.name == "DK1":
        return _projective_cover_dk1(m)
    return _projective_cover_ktype(m)


def _projective_cover_ktype(m):
    algebra = m.algebra
    rad = radical_vectors(m)
    head, _ = quotient_module(m, rad)
    plus, minus = _k_eigen_split(head.actions["K"], head.dim)
    pivots = {min(v) for v in rad}
    free = [j for j in range(m.dim) if j not in pivots]
    halves = _k_halves(m.actions["K"])
    pieces = []
    cover_blocks = []
    for r, eigvecs in ((0, plus), (1, minus)):
        proj_mod, incl = principal_projective(algebra, r)
        for hv in eigvecs:
            # lift the head eigenvector, then project onto the K-eigenspace
            v = halves[r].apply({free[k]: x for k, x in hv.items()})
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


def _projective_cover_dk1(m):
    bc = m.actions["b"] * m.actions["c"]
    ident = RatMatrix.identity(m.dim)
    if bc == ident:
        k2 = dk1_as_k2_actions(m)
        p, cov = _projective_cover_ktype(k2)
        return k2_as_dk1_actions(p), cov
    plus = kernel_basis(bc - ident)
    minus = kernel_basis(bc + ident)
    if not plus:
        # purely Steinberg-isotypic: semisimple projective, covers itself
        return m, RatMatrix.identity(m.dim)
    sub_p, incl_p = submodule(m, plus)
    sub_m, incl_m = submodule(m, minus)
    p1, cov1 = _projective_cover_dk1(sub_p)
    p2, cov2 = _projective_cover_dk1(sub_m)
    p = direct_sum([p1, p2])
    cov = (incl_p * cov1).hstack(incl_m * cov2)
    return p, cov


def injective_hull(m):
    """Injective hull via duality: (I, embedding M -> I).

    The transpose of the cover P -> M* is a map out of the double dual,
    which carries the S^2-twisted action; S^2 is conjugation by the
    grouplike, so composing with its action gives the embedding M -> P*.
    """
    p, cov = projective_cover(dual(m))
    grouplike = m.actions["K" if m.algebra.name != "DK1" else "b"]
    return dual(p), cov.transpose() * grouplike


# ---------------------------------------------------------------------
# decomposition


def _top_word_index(algebra):
    """Index of the full odd word x1...xm of a K-type algebra."""
    mgen = len(algebra.gen_labels) - 1
    return algebra.index[tuple(range(1, mgen + 1))]


def _peel_projectives(m):
    """Split off the free part of a K-type module.

    Returns (projective_summands, remainder_module): one canonical P(r)
    per free summand, and the quotient by the free part; valid because
    the algebra is self-injective, so the generated free submodule
    splits off.

    The K-eigencomponents of im(top) are the columns of (top +- K.top)/2.
    As K.top = (-1)^m top.K, column j has the preimage
    u = (e_j +- (-1)^m K e_j)/2, a K-eigenvector, so A.u is P(0) when
    K u = u and P(1) when K u = -u; u is column j of (I +- K)/2.  One u
    is taken per pivot column of the components, in the order j, then the
    sign: that picks each column that is independent of the ones before it.
    """
    algebra = m.algebra
    mgen = len(algebra.gen_labels) - 1
    top = m.word_action(_top_word_index(algebra))
    if top.is_zero():
        return [], m
    k_top = m.actions["K"] * top
    rows = [{} for _ in range(m.dim)]  # column 2j + s: component s of j
    for s, comp in enumerate((top + k_top, top - k_top)):
        for (i, j), v in comp.data.items():
            rows[i][2 * j + s] = v
    halves = [h.col_dicts() for h in _k_halves(m.actions["K"])]
    free = []  # spans the free part: A.u for each preimage u
    preimages = []  # r: A.u is P(r)
    odd = [m.actions[lbl] for lbl in algebra.gen_labels[1:]]
    for t in _echelon(rows, reduced=False)[0]:
        j, s = divmod(t, 2)
        r = s if mgen % 2 == 0 else 1 - s
        preimages.append(r)
        # the odd words applied to u
        orbit = [halves[r][j]]
        for x in odd:
            orbit += [x.apply(v) for v in orbit]
        free += orbit
    remainder, _ = quotient_module(m, free)
    if remainder.dim != m.dim - len(preimages) * 2 ** mgen:
        raise GreenRingError("free submodule has wrong dimension")
    return [principal_projective(algebra, r)[0] for r in preimages], remainder


def decompose(m):
    """Indecomposable direct summands of M (a list of ModuleRep)."""
    if m.dim == 0:
        return []
    if m.algebra.name == "DK1":
        return _decompose_dk1(m)
    if m.algebra.name.startswith("K"):
        m = _k_eigenbasis(m)
        summands, rest = _peel_projectives(m)
        if summands:
            return summands + decompose(rest)
    return _meataxe(m)


def _decompose_dk1(m):
    bc = m.actions["b"] * m.actions["c"]
    ident = RatMatrix.identity(m.dim)
    if bc == ident:
        # equal group-like actions: the K2 decomposition transports back
        return [k2_as_dk1_actions(s) for s in decompose(dk1_as_k2_actions(m))]
    plus = kernel_basis(bc - ident)
    if not plus:
        return _meataxe(m)
    minus = kernel_basis(bc + ident)
    sub_p, _ = submodule(m, plus)
    sub_m, _ = submodule(m, minus)
    return _decompose_dk1(sub_p) + _decompose_dk1(sub_m)


def _fitting_candidates(endos):
    """Deterministic endomorphism sample for Fitting splits."""
    for t in endos:
        yield t
    k = len(endos)
    for i in range(k):
        for j in range(i + 1, k):
            yield endos[i] + endos[j]
    for i in range(k):
        for j in range(k):
            if i != j:
                yield endos[i] * endos[j]
    # fixed pseudo-random small combinations
    state = 1
    for _ in range(10):
        coeffs = []
        for _ in range(k):
            state = (state * 1103515245 + 12345) % (1 << 31)
            coeffs.append(Rat((state >> 16) % 5 - 2))
        t = RatMatrix.zeros(endos[0].rows, endos[0].cols)
        for c, e in zip(coeffs, endos):
            if c:
                t = t + e.scale(c)
        yield t


def _meataxe(m):
    """End(M)-driven decomposition of a module with no free part.

    The local-End certificate comes first: M is indecomposable when
    End(M)/rad is Q, and on a local End(M) every Fitting candidate is
    nilpotent or invertible, so none of them could split M.  A larger
    End(M)/rad can still be a field; _split_idempotent tells that case.
    """
    endos = hom_basis(m, m).basis
    if len(endos) == 1:
        return [m]
    rad = _end_radical(endos)
    if len(endos) - len(rad) == 1:
        return [m]
    for theta in _fitting_candidates(endos):
        parts = _fitting_split(m, theta)
        if parts:
            return decompose(parts[0]) + decompose(parts[1])
    return _meataxe_idempotent(m, endos, rad)


def _fitting_split(m, theta):
    """M as (stable image, stable kernel) of the endomorphism theta, or
    None when theta is nilpotent or invertible."""
    # any exponent >= dim gives the stable image and kernel
    n = theta.power(2 ** (m.dim - 1).bit_length())
    if not 0 < n.rank() < m.dim:
        return None
    return (submodule(m, n.col_dicts())[0],
            submodule(m, kernel_basis(n))[0])


def _end_radical(endos):
    """Radical of End(M), in coordinates of the basis endos.

    It is the radical of the trace form (x, y) -> tr_M(xy): over Q that
    form's radical is a nil ideal and contains every nil ideal, because
    End(M) acts faithfully on M and contains the identity.
    """
    n = len(endos)
    ints = [e.int_form() for e in endos]
    transposed = [{(b, a): v for (a, b), v in t.items()} for t, _ in ints]
    gram = {}
    for i, (ti, di) in enumerate(ints):
        for j in range(i, n):
            tj = transposed[j]
            s = sum(v * tj[k] for k, v in ti.items() if k in tj)
            if s:
                gram[(i, j)] = gram[(j, i)] = Rat(s, di * ints[j][1])
    return kernel_basis(RatMatrix(n, n, gram))


def _meataxe_idempotent(m, endos, rad):
    """Split M, whose End(M)/rad is not Q, at a rational eigenvalue of a
    sampled endomorphism: the basis endos, then their pairwise sums.

    rad is the radical of End(M) in coordinates of the basis endos.
    """
    q = len(endos) - len(rad)
    k = len(endos)
    samples = endos + [endos[i] + endos[j]
                       for i in range(k) for j in range(i + 1, k)]
    for theta in samples:
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
      idempotent.
    - If p has degree q = dim End(M)/rad, then Q[theta] is all of
      End(M)/rad.  For q <= 3 with no rational root, p is irreducible, so
      End(M)/rad is a field and M is indecomposable, with a residue field
      larger than Q: no label names it, and Unclassified says so.
    """
    p = squarefree_part(minimal_polynomial(theta))
    roots = rational_roots(p)
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
    for t in hom_basis(m, n).basis:
        if t.rank() == m.dim:
            return True, t
    return False, None
