"""Seeded inputs and checked operations for the benchmark workloads.

Inputs are made here from the seed alone, as label strings and integer
matrices; the library only ever sees the prepared inputs.  Items come in
rounds.  For the pair workloads the ordered pairs are sorted by the
dimension of their tensor product, which sets their cost, and cut into
equal strata; each round draws one pair from every stratum, without
replacement.  Each identify-dense round holds one module of every total
dimension from 4 to 16.  Every round therefore carries the same mix of
small and large problems, whatever the seed, so run-to-run spread comes
from the program and not from which items the seed happened to draw.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

# STANDARD_ETAS of greenring.green, as label text
ETAS = ("0", "1", "-1", "2/3", "5/7", "inf")


def label_dim(text):
    """Dimension of a K2 label, read from its text."""
    m = re.fullmatch(r"(V|P)\(\d\)|O\([+-](\d+),\d\)|M\((\d+),\d,[^)]+\)",
                     text)
    if m is None:
        raise ValueError(f"unexpected label {text!r}")
    if m.group(1):
        return 1 if m.group(1) == "V" else 4
    if m.group(2):
        return 2 * int(m.group(2)) + 1
    return 2 * int(m.group(3))


def _sweep(max_s, max_n, etas):
    """Labels in the order of the criterion-02 sweep in greenring.verify."""
    out = []
    for r in (0, 1):
        out += [f"V({r})", f"P({r})"]
        for s in range(1, max_s + 1):
            out += [f"O(+{s},{r})", f"O(-{s},{r})"]
        for n in range(1, max_n + 1):
            out += [f"M({n},{r},{e})" for e in etas]
    return out


# the 36 distinct labels of the fusion gate's K2 sweep
PAIR_LABELS = tuple(dict.fromkeys(_sweep(4, 0, ()) +
                                  _sweep(0, 4, ETAS[3:5])))
# products of PAIR_LABELS reach syzygies up to depth 8; identify realizes
# them, so set-up does, and the timed phase meets no realize miss
ORACLE_REALIZED = PAIR_LABELS + tuple(
    f"O({sign}{s},{r})" for r in (0, 1) for s in range(5, 9) for sign in "+-")

# non-projective labels for identify-dense: V, O(+-s) s <= 3, M(n) n <= 3
DENSE_LABELS = tuple(t for t in _sweep(3, 3, ETAS) if not t.startswith("P"))
DENSE_DIMS = tuple(range(4, 17))


def product_dim(pair):
    return label_dim(pair[0]) * label_dim(pair[1])


ORACLE_PAIRS = tuple((a, b) for a in PAIR_LABELS for b in PAIR_LABELS)
# is_negligible on the 96 largest products (dimension 63 to 81) takes 1 to
# 5 s each: with them a 30 s run holds 72 to 108 operations, and its p50
# and throughput spread by 30 % from seed to seed.  The cap keeps systems
# of up to 56^2 unknowns.
NEGLIGIBLE_MAX_DIM = 56
NEGLIGIBLE_PAIRS = tuple(p for p in ORACLE_PAIRS
                         if product_dim(p) <= NEGLIGIBLE_MAX_DIM)


def pair_rounds(seed, pairs, n_strata):
    """Every pair once, in rounds of one pair from each cost stratum."""
    rng = random.Random(seed)
    pairs = list(pairs)
    rng.shuffle(pairs)
    # stable sort: pairs of equal cost stay in seeded order
    pairs.sort(key=product_dim)
    size = len(pairs) // n_strata
    strata = [pairs[k * size:(k + 1) * size] for k in range(n_strata)]
    for stratum in strata:
        rng.shuffle(stratum)
    rounds = []
    for r in range(size):
        rnd = [stratum[r] for stratum in strata]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def _dense_item(rng, dim):
    """2 or 3 labels of total dimension dim, and a basis change of dim steps.

    The basis change is a product of elementary matrices I + c*E_ij with
    c = +-1, so it is unimodular and its inverse is exact.
    """
    while True:
        labels = [rng.choice(DENSE_LABELS) for _ in range(rng.choice((2, 3)))]
        if sum(label_dim(t) for t in labels) == dim:
            break
    steps = []
    for _ in range(dim):
        i, j = rng.sample(range(dim), 2)
        steps.append((i, j, rng.choice((-1, 1))))
    return tuple(labels), tuple(steps)


def dense_rounds(seed):
    """Endless stratified rounds of identify-dense items."""
    rng = random.Random(seed)
    while True:
        rnd = [_dense_item(rng, d) for d in DENSE_DIMS]
        rng.shuffle(rnd)
        yield rnd


def basis_change(dim, steps):
    """(g, g^-1) as integer row lists for the given elementary steps."""
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    g_inv = [row[:] for row in g]
    for i, j, c in steps:
        # g <- (I + cE_ij) g ;  g^-1 <- g^-1 (I - cE_ij)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g_inv:
            row[j] -= c * row[i]
    return g, g_inv


def matmul(a, b):
    """Product of two dense row-list matrices."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def block_diag(blocks):
    dim = sum(len(b) for b in blocks)
    out = [[0] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def conjugate(a, g, g_inv):
    """g a g^-1 exactly, in integers over the common denominator of a."""
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    scaled = [[int(x * den) for x in row] for row in a]
    return [[Fraction(x, den) for x in row]
            for row in matmul(matmul(g, scaled), g_inv)]


class Workload:
    """A named closed-loop workload.

    rounds(seed) yields rounds of raw items; prepare() turns one item into
    library inputs outside the timed region; run() is the timed operation
    through the public entry points; check() says whether its answer is
    right.
    """

    name = ""
    labels = ()  # the pool items are drawn from
    realized = ()  # labels realized by setup()

    def setup(self):
        """Import the library, build K2 and its radical, realize the pool."""
        import greenring  # noqa: F401  (import time belongs to set-up)
        # The library imports sympy lazily, on a decomposition route that
        # only some inputs reach (identify-dense reaches it in about 40 %
        # of runs).  Importing it here keeps peak memory and operation
        # times independent of whether a run happens to reach that route.
        import sympy  # noqa: F401
        from greenring.hopf import build_km
        from greenring.indec import IndecLabel, realize
        from greenring.rep import algebra_radical

        algebra_radical(build_km(2))
        for text in self.realized:
            realize(IndecLabel.parse(text))

    def bind(self):
        """Library modules used by prepare/run/check, after setup().

        Functions are looked up on the modules at each call, so the
        tracer's rebinding reaches them.
        """
        import greenring.green
        import greenring.ideal
        import greenring.indec
        import greenring.rep
        self.green = greenring.green
        self.ideal = greenring.ideal
        self.indec = greenring.indec
        self.rep = greenring.rep

    def pool(self):
        return {"labels": len(self.labels)}


class OracleK2(Workload):
    """green_mul_oracle on distinct pairs of the fusion gate's 36 labels."""

    name = "oracle-k2"
    labels = PAIR_LABELS
    realized = ORACLE_REALIZED
    pairs = ORACLE_PAIRS
    strata = 36

    def rounds(self, seed):
        return iter(pair_rounds(seed, self.pairs, self.strata))

    def pool(self):
        return {"labels": len(self.labels), "pairs": len(self.pairs),
                "strata": self.strata,
                "max_product_dim": max(map(product_dim, self.pairs))}

    def prepare(self, item):
        parse = self.indec.IndecLabel.parse
        return parse(item[0]), parse(item[1])

    def run(self, inp):
        return self.green.green_mul_oracle(*inp)

    def check(self, inp, result):
        return result == self.green.green_mul_labels(*inp)


class NegligibleK2(OracleK2):
    """is_negligible and qdim of the tensor product of a pair of labels."""

    name = "negligible-k2"
    realized = PAIR_LABELS
    pairs = NEGLIGIBLE_PAIRS
    strata = 40

    def bind(self):
        super().bind()
        parse = self.indec.IndecLabel.parse
        self.qdims = {t: self.ideal.qdim(self.indec.realize(parse(t)))
                      for t in self.labels}

    def prepare(self, item):
        return item + super().prepare(item)

    def run(self, inp):
        realize = self.indec.realize
        m = self.rep.tensor(realize(inp[2]), realize(inp[3]))
        return self.ideal.is_negligible(m), self.ideal.qdim(m)

    def check(self, inp, result):
        # negligible modules form a tensor ideal, so the product is
        # negligible exactly when every closed-form summand is P or M
        product = self.green.green_mul_labels(inp[2], inp[3])
        negligible = all(l.kind in ("P", "M") for l in product.coeffs)
        return result == (negligible, self.qdims[inp[0]] * self.qdims[inp[1]])


class IdentifyDense(Workload):
    """identify on a sum of labels after a seeded unimodular basis change."""

    name = "identify-dense"
    labels = realized = DENSE_LABELS

    def rounds(self, seed):
        return dense_rounds(seed)

    def pool(self):
        return {"labels": len(self.labels),
                "dims": f"{DENSE_DIMS[0]}..{DENSE_DIMS[-1]}",
                "round": len(DENSE_DIMS)}

    def prepare(self, item):
        """Conjugated module, checked, with the expected label multiset."""
        from greenring.ratlin import RatMatrix
        indec, rep = self.indec, self.rep
        labels, steps = item
        mods = [indec.realize(indec.IndecLabel.parse(t)) for t in labels]
        dim = sum(m.dim for m in mods)
        g, g_inv = basis_change(dim, steps)
        if matmul(g, g_inv) != [[int(i == j) for j in range(dim)]
                                for i in range(dim)]:
            raise RuntimeError(f"basis change of {item} is not inverted")
        actions = {}
        for lbl, _ in mods[0].algebra.generators:
            a = block_diag([m.actions[lbl].to_rows() for m in mods])
            actions[lbl] = conjugate(a, g, g_inv)
        m = rep.ModuleRep(mods[0].algebra, dim,
                          {lbl: RatMatrix.from_rows(rows)
                           for lbl, rows in actions.items()})
        if not rep.check_module(m):
            raise RuntimeError(f"conjugated module {item} is not a module")
        return m.algebra, dim, m.actions, Counter(labels)

    def run(self, inp):
        algebra, dim, actions, _ = inp
        return self.indec.identify(self.rep.ModuleRep(algebra, dim, actions))

    def check(self, inp, result):
        return Counter(str(l) for l in result) == inp[3]


WORKLOADS = {w.name: w for w in (OracleK2, IdentifyDense, NegligibleK2)}
