"""The projective subcategory as concrete data.

ProjSkeleton holds the indecomposable projectives, their hom bases and
the composition structure constants.  verify_auslander_iso rebuilds the
endomorphism algebra of P(0) + P(1) from generator maps and checks it is
isomorphic to the Hopf algebra itself via the explicit assignment
iota_r -> e_r, phi^i_r -> xi_i e_r.  The simple-image criterion is
implemented twice -- directly on module images, and through the
quantified hom-space condition -- so each certifies the other.
"""

from __future__ import annotations

from .errors import OutOfRange, ZeroMap
from .hopf import build_km
from .indec import IndecLabel, realize
from .ratlin import ONE, Rat, RatMatrix, ZERO, kernel_dicts, solve_linear
from .rep import (decompose, hom_basis, principal_projective,
                  radical_vectors, submodule)


class ProjSkeleton:
    """Indecomposable projectives with hom bases and composition data."""

    def __init__(self, algebra_name, objects, names):
        self.algebra_name = algebra_name
        self.objects = objects
        self.names = names
        self.homs = {}
        for i, src in enumerate(objects):
            for j, tgt in enumerate(objects):
                self.homs[(i, j)] = hom_basis(src, tgt)
        self.comp = {}
        for i in range(len(objects)):
            for j in range(len(objects)):
                for k in range(len(objects)):
                    self.comp[(i, j, k)] = self._comp_block(i, j, k)

    def _comp_block(self, i, j, k):
        """coords of basis_{jk}[b] o basis_{ij}[a] in the hom(i,k) basis."""
        target = self.homs[(i, k)]
        block = {}
        for b, g in enumerate(self.homs[(j, k)]):
            for a, f in enumerate(self.homs[(i, j)]):
                block[(b, a)] = hom_coordinates(target, g * f)
        return block

    def hom_dim(self, i, j):
        return len(self.homs[(i, j)])

    def identity_coords(self, i):
        return hom_coordinates(self.homs[(i, i)],
                               RatMatrix.identity(self.objects[i].dim))

    def to_json_dict(self):
        from .ratlin import rat_to_str
        n = len(self.objects)
        return {
            "algebra": self.algebra_name,
            "objects": self.names,
            "hom_dims": [[self.hom_dim(i, j) for j in range(n)]
                         for i in range(n)],
            "composition": {
                f"{i},{j},{k}": {f"{b},{a}": [rat_to_str(c) for c in v]
                                 for (b, a), v in self.comp[(i, j, k)].items()}
                for (i, j, k) in self.comp
            },
        }


def hom_coordinates(homs, t):
    """Coordinates of an intertwiner in a hom basis, as a list."""
    mat = RatMatrix.from_columns([_vec_matrix(h) for h in homs],
                                 t.rows * t.cols)
    x, _ = solve_linear(mat, _vec_matrix(t))
    return [x.get(k, ZERO) for k in range(len(homs))]


def _vec_matrix(t):
    """t as a sparse vector, row-major."""
    return {i * t.cols + j: v for (i, j), v in t.data.items()}


def build_skeleton(algebra_name):
    """ProjSkeleton for K_m (m <= 3) or DK1."""
    if algebra_name.startswith("K"):
        m = int(algebra_name[1:])
        if not 1 <= m <= 3:
            raise OutOfRange("skeletons supported for K_m with m <= 3")
        algebra = build_km(m)
        objects = [principal_projective(algebra, r)[0] for r in (0, 1)]
        return ProjSkeleton(algebra_name, objects, ["P(0)", "P(1)"])
    if algebra_name == "DK1":
        objects = [realize(IndecLabel.proj(r), "DK1") for r in (0, 1)]
        objects += [realize(IndecLabel.steinberg(r), "DK1") for r in (0, 1)]
        return ProjSkeleton("DK1", objects,
                            ["P(0)", "P(1)", "St(0)", "St(1)"])
    raise OutOfRange(f"no skeleton for algebra {algebra_name!r}")


def skeleton_check(skel):
    """Identity and associativity of composition on all basis triples."""
    n = len(skel.objects)
    for i in range(n):
        ident = RatMatrix.identity(skel.objects[i].dim)
        skel.identity_coords(i)  # raises if the identity is missing
        for j in range(n):
            for f in skel.homs[(i, j)]:
                if f * ident != f:
                    return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for f in skel.homs[(i, j)]:
                        for g in skel.homs[(j, k)]:
                            for h in skel.homs[(k, l)]:
                                if (h * g) * f != h * (g * f):
                                    return False
    return True


# ---------------------------------------------------------------------
# the Auslander algebra isomorphism


class AuslanderReport:
    """Outcome of verify_auslander_iso, one line per checked property."""

    def __init__(self, m):
        self.m = m
        self.results = {}

    def record(self, name, ok):
        self.results[name] = bool(ok)

    @property
    def ok(self):
        return all(self.results.values())

    def lines(self):
        out = [f"Auslander algebra of K{self.m}:"]
        for name, ok in self.results.items():
            out.append(f"  {name}: {'ok' if ok else 'FAIL'}")
        out.append(f"  => {'isomorphism verified' if self.ok else 'FAILED'}")
        return out


def _proj_coords(incl, vec):
    """Coordinates of an algebra vector in a projective's basis."""
    x, _ = solve_linear(incl, vec)
    return x


def _generator_maps(m):
    """The maps iota_r and phi^i_r as blocks of End(P0 + P1).

    phi^i_r sends x e_r to x . (xi_i e_{1+r}); iota_r is the idempotent
    projecting the sum onto its r-th block.
    """
    algebra = build_km(m)
    projs = []
    incls = []
    for r in (0, 1):
        p, incl = principal_projective(algebra, r)
        projs.append(p)
        incls.append(incl)
    dims = [p.dim for p in projs]
    total = dims[0] + dims[1]
    offs = [0, dims[0]]

    def block(mat, tgt, src):
        data = {}
        for (i, j), v in mat.data.items():
            data[(offs[tgt] + i, offs[src] + j)] = v
        return RatMatrix(total, total, data)

    iotas = []
    for r in (0, 1):
        iotas.append(block(RatMatrix.identity(dims[r]), r, r))
    phis = {}
    for r in (0, 1):
        for i in range(1, m + 1):
            # image of each basis element x e_r of P_r under x -> x xi_i e_s
            s = 1 - r
            e_s = {algebra.index[()]: Rat(1, 2),
                   algebra.index[(0,)]: (ONE if s == 0 else -ONE) * Rat(1, 2)}
            xi_es = _elem_mult(algebra, {algebra.index[(i,)]: ONE}, e_s)
            cols = []
            for bcol in incls[r].col_dicts():
                # bcol is x e_r as an algebra element; multiply by xi_i e_s
                img = _left_mult(algebra, bcol).apply(xi_es)
                cols.append(_proj_coords(incls[s], img))
            phis[(i, r)] = block(RatMatrix.from_columns(cols, dims[s]), s, r)
    return algebra, projs, incls, iotas, phis, total


def _left_mult(algebra, vec):
    """Left multiplication matrix by a sparse algebra element."""
    n = algebra.dim
    data = {}
    for i, ci in vec.items():
        for j in range(n):
            for k, v in algebra.mult[(i, j)].items():
                key = (k, j)
                nv = data.get(key, ZERO) + ci * v
                if nv:
                    data[key] = nv
                else:
                    data.pop(key, None)
    return RatMatrix(n, n, data)


def _elem_mult(algebra, x, y):
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, v in algebra.mult[(i, j)].items():
                nv = out.get(k, ZERO) + ci * cj * v
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
    return out


def verify_auslander_iso(m):
    """Check End(P0 + P1) over K_m is the algebra K_m itself.

    Builds the generator maps, checks the eight product relations, spans
    the endomorphism algebra by words phi^w_r, defines F on that basis
    by phi^w_r -> w e_r, and verifies F is a bijective homomorphism.
    """
    if not 1 <= m <= 3:
        raise OutOfRange("verify_auslander_iso supports 1 <= m <= 3")
    rep = AuslanderReport(m)
    algebra, projs, incls, iotas, phis, total = _generator_maps(m)

    # dimension of the algebra: sum of hom dimensions
    homdims = [[len(hom_basis(projs[r], projs[s])) for s in (0, 1)]
               for r in (0, 1)]
    rep.record("hom dimensions all 2^(m-1)",
               all(homdims[r][s] == 2 ** (m - 1)
                   for r in (0, 1) for s in (0, 1)))
    rep.record("algebra dimension 2^(m+1)",
               sum(homdims[r][s] for r in (0, 1) for s in (0, 1))
               == 2 ** (m + 1))

    # the eight product relations of the generators
    zero = RatMatrix.zeros(total, total)
    rels_ok = True
    for r in (0, 1):
        for i in range(1, m + 1):
            pir = phis[(i, r)]
            if pir * phis[(i, 1 - r)] != zero:
                rels_ok = False
            if pir * iotas[r] != pir or iotas[1 - r] * pir != pir:
                rels_ok = False
            if iotas[r] * pir != zero or pir * iotas[1 - r] != zero:
                rels_ok = False
            for j in range(1, m + 1):
                if pir * phis[(j, r)] != zero:
                    rels_ok = False
                if pir * phis[(j, 1 - r)] != \
                        (phis[(j, r)] * phis[(i, 1 - r)]).scale(-ONE):
                    rels_ok = False
        if iotas[r] * iotas[r] != iotas[r]:
            rels_ok = False
        if iotas[r] * iotas[1 - r] != zero:
            rels_ok = False
    rep.record("eight generator relations", rels_ok)

    # basis of A: iota_r and phi^w_r for nonempty increasing words w,
    # where phi^w_r is the composite of the single-letter maps
    words = [w for w in algebra.words
             if w and 0 not in w]  # odd-generator words, including letters
    basis_maps = []
    basis_tags = []
    for r in (0, 1):
        basis_maps.append(iotas[r])
        basis_tags.append(((), r))
    for w in words:
        for r in (0, 1):
            mat = iotas[r]
            src = r
            for letter in reversed(w):
                mat = phis[(letter, src)] * mat
                src = 1 - src
            basis_maps.append(mat)
            basis_tags.append((w, r))
    basis_matrix = RatMatrix.from_columns(
        [_vec_matrix(b) for b in basis_maps], total * total)
    rep.record("phi^w_r maps form a basis of End",
               basis_matrix.rank() == len(basis_maps) == 2 ** (m + 1))

    # F on the basis: iota_r -> e_r, phi^w_r -> w e_r
    n = algebra.dim
    f_images = []
    for w, r in basis_tags:
        e_r = {algebra.index[()]: Rat(1, 2),
               algebra.index[(0,)]: (ONE if r == 0 else -ONE) * Rat(1, 2)}
        if w:
            f_images.append(_elem_mult(algebra, {algebra.index[w]: ONE}, e_r))
        else:
            f_images.append(e_r)

    def f_of(mat):
        coords, _ = solve_linear(basis_matrix, _vec_matrix(mat))
        out = {}
        for b, c in coords.items():
            for k, v in f_images[b].items():
                nv = out.get(k, ZERO) + c * v
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
        return out

    hom_ok = True
    for bi, u in enumerate(basis_maps):
        for bj, v in enumerate(basis_maps):
            lhs = f_of(u * v)
            rhs = _elem_mult(algebra, f_images[bi], f_images[bj])
            if lhs != rhs:
                hom_ok = False
    rep.record("F is multiplicative on all basis pairs", hom_ok)

    img_rank = RatMatrix.from_columns(f_images, n).rank()
    rep.record("F surjective onto the algebra", img_rank == n)
    rep.record("dimensions equal, hence bijective",
               len(basis_maps) == n and img_rank == n)
    return rep


# ---------------------------------------------------------------------
# the simple-image criterion, twice


def has_simple_image_direct(phi, source, target):
    """Is im(phi) simple, computed on the module itself?"""
    if phi.is_zero():
        raise ZeroMap("the criterion applies to nonzero maps")
    img, _ = submodule(target, phi.col_dicts())
    if radical_vectors(img):
        return False
    return len(decompose(img)) == 1


def has_simple_image_lemma(phi, skel, i, k):
    """Is im(phi) simple, by the hom-space criterion?

    phi: object i -> object k of the skeleton.  True iff for every
    nonzero psi: P_l -> P_k (basis maps over all sources l) and every
    j: P_k -> P (P over the indecomposable projectives and their full
    direct sum) with j o psi = 0, also j o phi = 0.
    """
    if phi.is_zero():
        raise ZeroMap("the criterion applies to nonzero maps")
    nobj = len(skel.objects)
    targets = []
    for t in range(nobj):
        targets.append([(h, t) for h in skel.homs[(k, t)]])
    # the full direct sum target: stack component maps
    targets.append([(h, t) for t in range(nobj)
                    for h in skel.homs[(k, t)]])
    for l in range(nobj):
        for psi in skel.homs[(l, k)]:
            if psi.is_zero():
                continue
            for jbasis in targets:
                if not jbasis:
                    continue
                # j = sum c_t j_t; j o psi = 0 is linear in c
                rows = {}
                ncols = len(jbasis)
                for t_idx, (h, t) in enumerate(jbasis):
                    comp = h * psi
                    for (a, b), v in comp.data.items():
                        rows.setdefault((t, a, b), {})[t_idx] = v
                for coeffs in kernel_dicts(list(rows.values()), ncols):
                    jphi = None
                    for t_idx, c in coeffs.items():
                        part = (jbasis[t_idx][0] * phi).scale(c)
                        jphi = part if jphi is None else jphi + part
                    if jphi is not None and not jphi.is_zero():
                        return False
    return True


def object_from_map(phi, source, target):
    """The image of a map between projectives, as a module."""
    img, _ = submodule(target, phi.col_dicts())
    return img
