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
rules.  check_hopf_axioms writes every structure map as a matrix on the
word basis and checks each axiom as one matrix identity between their
products and Kronecker products, e.g. mu (mu (x) 1) = mu (1 (x) mu).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OutOfRange
from .ratlin import (ONE, RatMatrix, SpanRREF, ZERO, kronecker_product,
                     trace_form_radical)

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
        return RatMatrix.from_columns(self.antipode, self.dim)


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


def _check_identity(report, name, sides, labels, legs):
    """Record whether the matrices in sides (one shape) are all equal.

    Their columns are indexed by basis tensors of A^(x legs), b_i (x) b_j
    at column i * n + j; a failure names the first column where two sides
    differ.
    """
    cols = [j for m in sides[1:] for _, j in (m - sides[0]).int_form()[0]]
    if not cols:
        report.record(name, True)
        return
    n, c, parts = len(labels), min(cols), []
    for _ in range(legs):
        c, k = divmod(c, n)
        parts.append(labels[k])
    report.record(name, False, " (x) ".join(reversed(parts)))


def check_hopf_axioms(algebra):
    """Exact check of all Hopf axioms; returns a report.

    The structure maps are matrices on the word basis, with b_i (x) b_j
    at index i * n + j: mu (n x n^2), Delta (n^2 x n), the counit eps
    (1 x n), the unit eta (n x 1) and S (n x n).  Each axiom is one
    identity between products of their Kronecker products.
    """
    a = algebra
    n = a.dim
    mu = RatMatrix(n, n * n, {(k, i * n + j): v
                              for (i, j), col in a.mult.items()
                              for k, v in col.items()})
    delta = RatMatrix(n * n, n, {(p * n + q, i): v
                                 for i, col in enumerate(a.comult)
                                 for (p, q), v in col.items()})
    eps = RatMatrix(1, n, {(0, i): v for i, v in enumerate(a.counit)})
    eta = RatMatrix.from_columns([a.unit], n)
    s = a.antipode_matrix()
    one = RatMatrix.identity(n)
    kron = kronecker_product
    # column i * n + j: the product Delta(b_i) Delta(b_j) in A (x) A
    delta_products = RatMatrix(n * n, n * n, {
        (p * n + q, i * n + j): v for i in range(n) for j in range(n)
        for (p, q), v in a.multiply_tensor(a.comult[i], a.comult[j]).items()})
    rep = AxiomReport()
    labels = a.basis_labels
    for name, sides, legs in (
            ("associativity", [mu * kron(mu, one), mu * kron(one, mu)], 3),
            ("unit", [mu * kron(eta, one), one, mu * kron(one, eta)], 1),
            ("coassociativity",
             [kron(delta, one) * delta, kron(one, delta) * delta], 1),
            ("counit", [kron(eps, one) * delta, one, kron(one, eps) * delta],
             1),
            ("bialgebra compatibility", [delta * mu, delta_products], 2),
            ("counit is an algebra map", [eps * mu, kron(eps, eps)], 2),
            ("antipode", [mu * kron(s, one) * delta, eta * eps,
                          mu * kron(one, s) * delta], 1)):
        _check_identity(rep, name, sides, labels, legs)

    # generators generate: iterated products of generator vectors span A
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
    """Basis of the radical, as sparse vectors: the radical of the trace
    form of the left-regular representation, b_i -> L_i with column w of
    L_i the product b_i b_w.  Its Gram matrix is tr(L_i L_j) =
    tr(L_{b_i b_j})."""
    n = algebra.dim
    return trace_form_radical([
        RatMatrix(n, n, {(k, w): v for w in range(n)
                         for k, v in algebra.mult[(i, w)].items()})
        for i in range(n)])
