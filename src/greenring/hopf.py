"""Finite-dimensional Hopf algebras by structure constants.

An algebra is built from a rewriting system on generator words: a basis
of normal words plus a rule for normalizing any product.  Two concrete
families are provided:

* `build_km(m)` -- the 2^(m+1)-dimensional algebra with an order-2
  group-like K and m skew-primitive odd generators x1..xm satisfying
  K^2 = 1, xi^2 = 0, K xi = -xi K, xi xj = -xj xi.
* `build_dk1()` -- the 16-dimensional algebra with generators a, b, c, d,
  relations a^2 = d^2 = 0, b^2 = c^2 = 1, ad + da = 1 - bc, b and c
  group-like, and coalgebra maps D(a) = a(x)b + 1(x)a, D(d) = d(x)c +
  1(x)d, S(a) = -ab, S(d) = -dc.

Elements are sparse vectors over the word basis.  The comultiplication,
counit and antipode are stored as evaluated linear maps, not symbolic
rules, so every axiom can be checked by exact linear algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OutOfRange
from .ratlin import ONE, Rat, RatMatrix, ZERO, kernel_basis, rat_to_str

# ---------------------------------------------------------------------
# rewriting


def _normalize(word, rewrite, cache):
    """Expand a generator word into normal words: dict word -> coeff.

    `rewrite(x, y)` handles an adjacent out-of-order or repeated pair,
    returning [(replacement_word, coeff), ...].  Terminates because every
    rule lowers (degree, inversion count).
    """
    if word in cache:
        return cache[word]
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x > y or x == y:
            acc = {}
            for repl, coeff in rewrite(x, y):
                sub = word[:i] + repl + word[i + 2:]
                for w, c in _normalize(sub, rewrite, cache).items():
                    nv = acc.get(w, ZERO) + coeff * c
                    if nv:
                        acc[w] = nv
                    else:
                        acc.pop(w, None)
            cache[word] = acc
            return acc
    result = {word: ONE}
    cache[word] = result
    return result


class HopfAlgebraData:
    """A finite-dimensional Hopf algebra presented by structure constants.

    Basis elements are normal words in the generators; `mult[(i, j)]`,
    `comult[i]`, `counit[i]` and `antipode[i]` give the structure maps on
    basis elements as sparse vectors (pairs of indices for the coproduct).
    """

    def __init__(self, name, gen_labels, words, rewrite, comult_gens,
                 counit_gens, antipode_gens):
        self.name = name
        self.gen_labels = list(gen_labels)
        self.words = list(words)  # normal words, ascending generator tuples
        self.dim = len(words)
        self.index = {w: k for k, w in enumerate(words)}
        self._cache = {}
        self._rewrite = rewrite
        self.basis_labels = [self._label(w) for w in words]
        self.unit = {self.index[()]: ONE}
        self.mult = {}
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                prod = _normalize(wi + wj, rewrite, self._cache)
                self.mult[(i, j)] = {self.index[w]: c for w, c in prod.items()}
        self.generators = [(lbl, {self.index[(g,)]: ONE})
                           for g, lbl in enumerate(gen_labels)]
        # Coalgebra maps, evaluated on the word basis.
        self.comult = [self._word_comult(w, comult_gens) for w in words]
        self.counit = [self._word_counit(w, counit_gens) for w in words]
        self.antipode = [self._word_antipode(w, antipode_gens) for w in words]

    def _label(self, word):
        if not word:
            return "1"
        return "*".join(self.gen_labels[g] for g in word)

    # -- element arithmetic (sparse dicts index -> Rat) ---------------

    def multiply(self, x, y):
        acc = {}
        for i, ci in x.items():
            for j, cj in y.items():
                f = ci * cj
                for k, ck in self.mult[(i, j)].items():
                    nv = acc.get(k, ZERO) + f * ck
                    if nv:
                        acc[k] = nv
                    else:
                        del acc[k]
        return acc

    def multiply_tensor(self, x, y):
        """Componentwise product in A (x) A; x, y map (i, j) -> Rat."""
        acc = {}
        for (i1, j1), c1 in x.items():
            for (i2, j2), c2 in y.items():
                f = c1 * c2
                for k1, ck1 in self.mult[(i1, i2)].items():
                    for k2, ck2 in self.mult[(j1, j2)].items():
                        key = (k1, k2)
                        nv = acc.get(key, ZERO) + f * ck1 * ck2
                        if nv:
                            acc[key] = nv
                        else:
                            del acc[key]
        return acc

    def _word_comult(self, word, comult_gens):
        acc = {(self.index[()], self.index[()]): ONE}
        for g in word:
            acc = self.multiply_tensor(acc, comult_gens[g])
        return acc

    def _word_counit(self, word, counit_gens):
        v = ONE
        for g in word:
            v = v * counit_gens[g]
            if not v:
                return ZERO
        return v

    def _word_antipode(self, word, antipode_gens):
        # S is an anti-homomorphism: apply to generators in reverse order.
        acc = {self.index[()]: ONE}
        for g in reversed(word):
            acc = self.multiply(acc, antipode_gens[g])
        return acc

    # -- linear-map views ---------------------------------------------

    def antipode_matrix(self):
        data = {}
        for j, col in enumerate(self.antipode):
            for i, v in col.items():
                data[(i, j)] = v
        return RatMatrix(self.dim, self.dim, data)

    def left_mult_trace(self, x):
        """Trace of left multiplication by the element x."""
        t = ZERO
        for i, ci in x.items():
            for w in range(self.dim):
                t += ci * self.mult[(i, w)].get(w, ZERO)
        return t

    def to_json_dict(self):
        dense_mult = [[[rat_to_str(self.mult[(i, j)].get(k, ZERO))
                        for k in range(self.dim)]
                       for j in range(self.dim)]
                      for i in range(self.dim)]
        comult = [sorted([i, j, rat_to_str(v)] for (i, j), v in row.items())
                  for row in self.comult]
        return {
            "name": self.name,
            "dim": self.dim,
            "basis_labels": self.basis_labels,
            "generators": [[lbl, {str(k): rat_to_str(v)
                                  for k, v in vec.items()}]
                           for lbl, vec in self.generators],
            "mult": dense_mult,
            "comult": comult,
            "counit": [rat_to_str(v) for v in self.counit],
            "antipode": [sorted([k, rat_to_str(v)] for k, v in col.items())
                         for col in self.antipode],
        }


# ---------------------------------------------------------------------
# the two families


def _km_rewrite(m):
    def rewrite(x, y):
        # generator 0 is K, generators 1..m are the odd xi
        if x == y:
            if x == 0:
                return [((), ONE)]       # K^2 = 1
            return []                    # xi^2 = 0
        # here x > y
        if y == 0:
            return [((0, x), -ONE)]      # xi K = -K xi
        return [((y, x), -ONE)]          # xi xj = -xj xi
    return rewrite


def _increasing_words(num_gens):
    words = [()]
    for g in range(num_gens):
        words = words + [w + (g,) for w in words]
    return sorted(words, key=lambda w: (len(w), w))


@lru_cache(maxsize=None)
def build_km(m):
    """The 2^(m+1)-dimensional algebra K with m odd generators.

    Basis: words K^a x_{i1}...x_{ik} with a in {0,1}, i1 < ... < ik.
    """
    if not 1 <= m <= 6:
        raise OutOfRange(f"m must be in 1..6, got {m}")
    gen_labels = ["K"] + [f"x{i}" for i in range(1, m + 1)]
    words = _increasing_words(m + 1)
    unit_pair = lambda: None  # noqa: E731 (documentation aid only)
    # D(K) = K(x)K ; D(xi) = K(x)xi + xi(x)1
    def idx(w):
        return words.index(w)
    comult_gens = [{(idx((0,)), idx((0,))): ONE}]
    for i in range(1, m + 1):
        comult_gens.append({(idx((0,)), idx((i,))): ONE,
                            (idx((i,)), idx(())): ONE})
    counit_gens = [ONE] + [ZERO] * m
    # S(K) = K ; S(xi) = -K xi
    antipode_gens = [{idx((0,)): ONE}]
    for i in range(1, m + 1):
        antipode_gens.append({idx((0, i)): -ONE})
    return HopfAlgebraData(f"K{m}", gen_labels, words, _km_rewrite(m),
                           comult_gens, counit_gens, antipode_gens)


def _dk1_rewrite(x, y):
    # generators: 0 = a, 1 = b, 2 = c, 3 = d
    if x == y:
        if x in (0, 3):
            return []                    # a^2 = d^2 = 0
        return [((), ONE)]               # b^2 = c^2 = 1
    if (x, y) == (1, 0):
        return [((0, 1), -ONE)]          # b a = -a b
    if (x, y) == (2, 0):
        return [((0, 2), -ONE)]          # c a = -a c
    if (x, y) == (3, 0):
        # d a = 1 - b c - a d
        return [((), ONE), ((1, 2), -ONE), ((0, 3), -ONE)]
    if (x, y) == (2, 1):
        return [((1, 2), ONE)]           # c b = b c
    if (x, y) == (3, 1):
        return [((1, 3), -ONE)]          # d b = -b d
    if (x, y) == (3, 2):
        return [((2, 3), -ONE)]          # d c = -c d
    raise AssertionError((x, y))


@lru_cache(maxsize=None)
def build_dk1():
    """The 16-dimensional algebra on a, b, c, d (basis a^i b^j c^k d^l)."""
    gen_labels = ["a", "b", "c", "d"]
    words = _increasing_words(4)
    def idx(w):
        return words.index(w)
    comult_gens = [
        {(idx((0,)), idx((1,))): ONE, (idx(()), idx((0,))): ONE},  # a(x)b+1(x)a
        {(idx((1,)), idx((1,))): ONE},                             # b(x)b
        {(idx((2,)), idx((2,))): ONE},                             # c(x)c
        {(idx((3,)), idx((2,))): ONE, (idx(()), idx((3,))): ONE},  # d(x)c+1(x)d
    ]
    counit_gens = [ZERO, ONE, ONE, ZERO]
    antipode_gens = [
        {idx((0, 1)): -ONE},   # S(a) = -ab
        {idx((1,)): ONE},      # S(b) = b
        {idx((2,)): ONE},      # S(c) = c
        {idx((2, 3)): ONE},    # S(d) = -dc = +cd in the normal basis
    ]
    return HopfAlgebraData("DK1", gen_labels, words, _dk1_rewrite,
                           comult_gens, counit_gens, antipode_gens)


def get_algebra(name):
    """Algebra by name: "K<m>" or "DK1"."""
    if name == "DK1":
        return build_dk1()
    if name.startswith("K") and name[1:].isdigit():
        return build_km(int(name[1:]))
    raise OutOfRange(f"unknown algebra {name!r}")


# ---------------------------------------------------------------------
# axiom checking


class AxiomReport:
    """Named pass/fail results for the Hopf axioms."""

    def __init__(self):
        self.results = {}  # name -> (ok, detail)

    def record(self, name, ok, detail=""):
        self.results[name] = (bool(ok), detail)

    @property
    def ok(self):
        return all(ok for ok, _ in self.results.values())

    def lines(self):
        return [f"{'PASS' if ok else 'FAIL'} {name}"
                + (f": {detail}" if detail and not ok else "")
                for name, (ok, detail) in sorted(self.results.items())]

    def __repr__(self):
        return "\n".join(self.lines())


def _tensor3_apply_left(algebra, pair_map_of, elem2):
    """Apply the coproduct to the left leg of an element of A (x) A."""
    acc = {}
    for (i, j), c in elem2.items():
        for (k, l), d in pair_map_of(i).items():
            key = (k, l, j)
            nv = acc.get(key, ZERO) + c * d
            if nv:
                acc[key] = nv
            else:
                del acc[key]
    return acc


def _tensor3_apply_right(algebra, pair_map_of, elem2):
    acc = {}
    for (i, j), c in elem2.items():
        for (k, l), d in pair_map_of(j).items():
            key = (i, k, l)
            nv = acc.get(key, ZERO) + c * d
            if nv:
                acc[key] = nv
            else:
                del acc[key]
    return acc


def check_hopf_axioms(algebra):
    """Exact check of all Hopf axioms on basis elements; returns a report."""
    a = algebra
    n = a.dim
    rep = AxiomReport()

    ok = True
    detail = ""
    for i in range(n):
        for j in range(n):
            xy = a.mult[(i, j)]
            for k in range(n):
                left = a.multiply(xy, {k: ONE})
                right = a.multiply({i: ONE}, a.mult[(j, k)])
                if left != right:
                    ok, detail = False, f"(b{i} b{j}) b{k}"
                    break
            if not ok:
                break
        if not ok:
            break
    rep.record("associativity", ok, detail)

    one = a.unit
    ok = all(a.multiply(one, {i: ONE}) == {i: ONE}
             and a.multiply({i: ONE}, one) == {i: ONE} for i in range(n))
    rep.record("unit", ok)

    ok = True
    detail = ""
    for i in range(n):
        lhs = _tensor3_apply_left(a, lambda k: a.comult[k], a.comult[i])
        rhs = _tensor3_apply_right(a, lambda k: a.comult[k], a.comult[i])
        if lhs != rhs:
            ok, detail = False, a.basis_labels[i]
            break
    rep.record("coassociativity", ok, detail)

    ok = True
    for i in range(n):
        left = {}
        right = {}
        for (p, q), c in a.comult[i].items():
            v = c * a.counit[p]
            if v:
                left[q] = left.get(q, ZERO) + v
            v = c * a.counit[q]
            if v:
                right[p] = right.get(p, ZERO) + v
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        if left != {i: ONE} or right != {i: ONE}:
            ok = False
            break
    rep.record("counit", ok)

    ok = True
    detail = ""
    for i in range(n):
        for j in range(n):
            dxy = {}
            for k, c in a.mult[(i, j)].items():
                for key, d in a.comult[k].items():
                    nv = dxy.get(key, ZERO) + c * d
                    if nv:
                        dxy[key] = nv
                    else:
                        del dxy[key]
            prod = a.multiply_tensor(a.comult[i], a.comult[j])
            if dxy != prod:
                ok, detail = False, f"{a.basis_labels[i]} * {a.basis_labels[j]}"
                break
        if not ok:
            break
    rep.record("bialgebra compatibility", ok, detail)

    ok = all(
        sum((c * a.counit[k] for k, c in a.mult[(i, j)].items()), ZERO)
        == a.counit[i] * a.counit[j]
        for i in range(n) for j in range(n))
    rep.record("counit is an algebra map", ok)

    ok = True
    detail = ""
    for i in range(n):
        lhs = {}
        rhs = {}
        for (p, q), c in a.comult[i].items():
            sp = {k: c * v for k, v in a.antipode[p].items()}
            for k, v in a.multiply(sp, {q: ONE}).items():
                nv = lhs.get(k, ZERO) + v
                if nv:
                    lhs[k] = nv
                else:
                    del lhs[k]
            sq = {k: c * v for k, v in a.antipode[q].items()}
            for k, v in a.multiply({p: ONE}, sq).items():
                nv = rhs.get(k, ZERO) + v
                if nv:
                    rhs[k] = nv
                else:
                    del rhs[k]
        target = {k: a.counit[i] * v for k, v in a.unit.items()
                  if a.counit[i] * v}
        if lhs != target or rhs != target:
            ok, detail = False, a.basis_labels[i]
            break
    rep.record("antipode", ok, detail)

    # generators generate: iterated products of generator vectors span A
    from .ratlin import SpanRREF
    sp = SpanRREF()
    pool = [a.unit] + [vec for _, vec in a.generators]
    for vec in pool:
        sp.add(vec)
    changed = True
    while changed and sp.rank < n:
        changed = False
        new_pool = []
        for x in pool:
            for _, g in a.generators:
                prod = a.multiply(x, g)
                if sp.add(prod):
                    new_pool.append(prod)
                    changed = True
        pool = pool + new_pool
    rep.record("generators generate", sp.rank == n,
               f"span dim {sp.rank} of {n}")
    return rep


def jacobson_radical(algebra):
    """Basis of the radical via the char-0 trace form tr(L_x L_y).

    Returns sparse vectors spanning the kernel of the Gram matrix of the
    form (x, y) -> trace of left multiplication by xy.
    """
    n = algebra.dim
    gram = {}
    for i in range(n):
        for j in range(n):
            t = algebra.left_mult_trace(algebra.mult[(i, j)])
            if t:
                gram[(i, j)] = t
    return kernel_basis(RatMatrix(n, n, gram))
