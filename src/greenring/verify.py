"""Verification suites: every structural theorem rerun by brute force.

Each suite returns a SuiteResult with deterministic, byte-stable lines.
The CLI `verify` command and the acceptance tests are thin wrappers over
these functions.
"""

from __future__ import annotations

from itertools import product as iproduct

from .green import (GreenElement, STANDARD_ETAS, dimension_character,
                    green_mul, green_mul_labels, green_mul_oracle,
                    verify_presentation)
from .hopf import build_dk1, build_km, check_hopf_axioms
from .ideal import (IdealSpec, ideal_closure, ideal_contains, is_negligible,
                    is_quasi_dominated, qdim)
from .indec import IndecLabel, identify, realize
from .projcat import (build_skeleton, has_simple_image_direct,
                      has_simple_image_lemma, skeleton_check,
                      verify_auslander_iso)
from .ratlin import Rat, RatMatrix
from .rep import (decompose, direct_sum, in_r0, principal_projective,
                  projective_cover, tensor)


class SuiteResult:
    def __init__(self, name):
        self.name = name
        self.lines = []
        self.ok = True

    def check(self, desc, cond):
        cond = bool(cond)
        self.ok = self.ok and cond
        self.lines.append(f"  [{'pass' if cond else 'FAIL'}] {desc}")
        return cond

    def note(self, text):
        self.lines.append(f"  note: {text}")

    def render(self):
        head = f"suite {self.name}: {'PASS' if self.ok else 'FAIL'}"
        return "\n".join([head] + self.lines)


def _k2_labels(max_s, max_n, etas):
    out = []
    for r in (0, 1):
        out.append(IndecLabel.simple(r))
        out.append(IndecLabel.proj(r))
        for s in range(1, max_s + 1):
            out.append(IndecLabel.syz_pos(s, r))
            out.append(IndecLabel.syz_neg(s, r))
        for n in range(1, max_n + 1):
            for e in etas:
                out.append(IndecLabel.mtype(n, r, e))
    return out


def suite_hopf(max_s=4, max_n=4, etas=None):
    """Acceptance 1: exact Hopf axioms for K_1..K_3 and DK_1."""
    res = SuiteResult("hopf")
    for m in (1, 2, 3):
        rep = check_hopf_axioms(build_km(m))
        res.check(f"K{m} satisfies all Hopf axioms", rep.ok)
    rep = check_hopf_axioms(build_dk1())
    res.check("DK1 satisfies all Hopf axioms", rep.ok)
    return res


def suite_fusion(max_s=4, max_n=4, etas=None):
    """Acceptance 2, 3, 5, 6: the fusion theorem against the oracle."""
    if etas is None:
        etas = STANDARD_ETAS
    res = SuiteResult("fusion")

    # criterion 2: oracle agreement; non-M labels in full, the M family
    # over two generic eta values, plus an all-eta sweep at small n
    # both halves list V(r) and P(r): keep each label once
    sweep = list(dict.fromkeys(_k2_labels(max_s, 0, [])
                               + _k2_labels(0, max_n, etas[3:5])))
    mismatches = []
    for a in sweep:
        for b in sweep:
            if green_mul_labels(a, b) != green_mul_oracle(a, b):
                mismatches.append((a, b))
    res.check(f"closed form = oracle on {len(sweep) ** 2} K2 products",
              not mismatches)
    small_m = [IndecLabel.mtype(n, r, e)
               for n in (1, 2) for r in (0, 1) for e in etas]
    eta_mism = [(a, b) for a in small_m for b in small_m
                if green_mul_labels(a, b) != green_mul_oracle(a, b)]
    res.check(f"closed form = oracle on {len(small_m) ** 2} M-family "
              "products over the full eta set", not eta_mism)
    res.note("parity conventions certified by the oracle: "
             "O(+s)xM has projective parity p(s); O(-s)xM has M-twist "
             "p(s) and projective parity p(s+1); the s<n branch of the "
             "syzygy rule reads p(s+n+1).")
    # the borderline case where the two candidate parities differ
    witness = green_mul_oracle(IndecLabel.syz_pos(1, 0),
                               IndecLabel.syz_neg(1, 1))
    res.check("O(+1,0) x O(-1,1) = V(1) + 2*P(0) (recorded parity "
              "witness)",
              witness == GreenElement([(IndecLabel.simple(1), 1),
                                       (IndecLabel.proj(0), 2)]))

    # duality is a ring involution on a sampled set
    dual_sweep = _k2_labels(2, 2, etas[3:4])
    dual_ok = all(green_mul_labels(a, b).dual()
                  == green_mul_labels(a.dual(), b.dual())
                  for a in dual_sweep for b in dual_sweep)
    res.check("label duality commutes with multiplication", dual_ok)

    # criterion 3: the simple/projective sub-table over K_1..K_3
    for m in (1, 2, 3):
        algebra = build_km(m)
        projs = [principal_projective(algebra, r)[0] for r in (0, 1)]
        ok = True
        for i in (0, 1):
            for j in (0, 1):
                summands = decompose(tensor(projs[i], projs[j]))
                # the peel returns the cached principal projectives
                counts = [sum(s is p for s in summands) for p in projs]
                ok = (ok and sum(counts) == len(summands)
                      and counts == [2 ** (m - 1), 2 ** (m - 1)])
        res.check(f"K{m}: P(i) x P(j) = 2^{m - 1}P(0) + 2^{m - 1}P(1)", ok)

    # criterion 6: resolution multiplicities and syzygy dimensions
    from .indec import syzygy
    ok = True
    for r in (0, 1):
        mod = realize(IndecLabel.simple(r), "K2")
        for k in range(max_s + 1):
            cover, _ = projective_cover(mod)
            want = IndecLabel.proj((r + k) % 2)
            got = identify(cover)
            ok = ok and got == [want] * (k + 1)
            if k < max_s:
                mod = realize(IndecLabel.syz_pos(k + 1, r), "K2")
    res.check("minimal resolution: cover of Omega^k V(r) is "
              f"(k+1) P(r+p(k)) for k = 0..{max_s}", ok)
    res.check(f"dim Omega^{{+-s}}V(r) = 2s+1 for s <= {max_s}",
              all(syzygy(k, r).dim == 2 * abs(k) + 1 for r in (0, 1)
                  for s in range(1, max_s + 1) for k in (s, -s)))

    # criterion 5: the r0 correspondence at n = 1
    st_labels = [IndecLabel.steinberg(r) for r in (0, 1)]
    r0_labels = _k2_labels(2, 2, etas[3:4])
    ok = all(in_r0(realize(l, "DK1")) for l in r0_labels) and \
        not any(in_r0(realize(l, "DK1")) for l in st_labels)
    res.check("in_r0 accepts exactly the non-Steinberg labels", ok)
    agree = all(green_mul_labels(a, b, "DK1") == green_mul_labels(a, b, "K2")
                and green_mul_oracle(a, b, "DK1")
                == green_mul_oracle(a, b, "K2")
                for a in r0_labels[:8] for b in r0_labels[:8])
    res.check("r0 products agree over DK1 and over K2 after restriction",
              agree)
    dims_ok = all(dimension_character(green_mul_labels(a, b))
                  == a.dim() * b.dim()
                  for a in sweep for b in sweep)
    res.check("dimension character is multiplicative on the sweep", dims_ok)
    return res


def suite_greenring(max_s=4, max_n=4, etas=None):
    """Acceptance 4: the presentation relations vanish."""
    if etas is None:
        etas = STANDARD_ETAS
    res = SuiteResult("greenring")
    for algebra in ("DK1", "K2"):
        rep = verify_presentation(algebra, max_n=3, etas=etas[:4])
        res.check(f"all {len(rep.entries)} relation instances vanish "
                  f"over {algebra}", rep.ok)
        for n in rep.notes:
            res.note(n)
    # associativity and commutativity on a sampled label set
    sample = _k2_labels(2, 2, etas[3:4])
    comm = all(green_mul_labels(a, b) == green_mul_labels(b, a)
               for a in sample for b in sample)
    res.check("commutativity on sampled pairs", comm)
    trip = sample[::3]
    assoc = all(
        green_mul(green_mul_labels(a, b), GreenElement.from_label(c))
        == green_mul(GreenElement.from_label(a), green_mul_labels(b, c))
        for a in trip for b in trip for c in trip)
    res.check("associativity on sampled triples", assoc)
    return res


def suite_ideals(max_s=4, max_n=4, etas=None):
    """Acceptance 8, 9, 10: ideals, negligibility, quasi-domination."""
    if etas is None:
        etas = STANDARD_ETAS
    res = SuiteResult("ideals")
    from math import inf

    # 20 sampled f's, pairwise distinguished by witness labels
    bounds = (1, 2, 3, 4, inf)
    specs = []
    for b0 in bounds:
        for b1 in (1, 2, 3, inf):
            specs.append(IdealSpec(True, {etas[3]: b0, etas[4]: b1}, 1))
    specs = specs[:20]
    distinct = True
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            witness = None
            for eta in (etas[3], etas[4]):
                for n in (1, 2, 3, 4):
                    lbl = IndecLabel.mtype(n, 0, eta)
                    if specs[i].member_label(lbl) != \
                            specs[j].member_label(lbl):
                        witness = lbl
                        break
                if witness:
                    break
            if specs[i] != specs[j] and witness is None:
                distinct = False
    res.check("20 sampled ideal specs pairwise distinguished by witness "
              "labels", distinct)

    # closure of simple/syzygy labels is improper via a unit-containing
    # product exhibited by the oracle
    ok = True
    for r in (0, 1):
        for gen in [IndecLabel.simple(r)] + \
                [IndecLabel.syz_pos(s, r) for s in (1, 2)] + \
                [IndecLabel.syz_neg(s, r) for s in (1, 2)]:
            if ideal_closure([gen]) != IdealSpec.improper():
                ok = False
            prod = green_mul_oracle(gen, gen.dual())
            if not any(l.kind == "V" for l in prod.coeffs):
                ok = False
    res.check("simple and syzygy generators force the improper ideal "
              "(product with the dual contains a simple)", ok)

    # tensor stability of a sampled proper spec, summand-wise
    spec = ideal_closure([IndecLabel.mtype(2, 0, etas[3])])
    members = [IndecLabel.proj(0), IndecLabel.proj(1)] + \
        [IndecLabel.mtype(n, r, etas[3]) for n in (1, 2) for r in (0, 1)] + \
        [IndecLabel.mtype(1, 0, etas[0])]
    members = [l for l in members if spec.member_label(l)]
    all_labels = _k2_labels(3, 3, etas[3:5])
    stable = all(ideal_contains(spec, green_mul_oracle(a, m))
                 for m in members for a in all_labels)
    res.check("sampled proper ideal is stable under tensoring by all "
              "labels with s, n <= 3", stable)

    # criterion 9: negligibility classification over both algebras
    negligible_kinds = {"P", "M", "St"}
    ok = True
    for lbl in _k2_labels(max_s, max_n, etas):
        want = lbl.kind in negligible_kinds
        if is_negligible(realize(lbl, "K2")) != want:
            ok = False
        if is_negligible(realize(lbl, "DK1")) != want:
            ok = False
    for r in (0, 1):
        if not is_negligible(realize(IndecLabel.steinberg(r), "DK1")):
            ok = False
    res.check("negligible exactly on projectives, the M family and "
              "Steinberg modules", ok)
    res.check("qdim values on simples and projectives",
              qdim(realize(IndecLabel.simple(0), "K2")) == Rat(1)
              and qdim(realize(IndecLabel.simple(1), "K2")) == Rat(-1)
              and qdim(realize(IndecLabel.proj(0), "K2")) == Rat(0)
              and qdim(realize(IndecLabel.proj(1), "K2")) == Rat(0))

    # criterion 10: quasi-domination on 50 deterministic random sums
    pool = _k2_labels(3, 3, etas[3:5])
    state = 12345
    ok = True
    for _ in range(50):
        picks = []
        state = (state * 1103515245 + 12345) % (1 << 31)
        count = 1 + (state >> 16) % 3
        for _ in range(count):
            state = (state * 1103515245 + 12345) % (1 << 31)
            picks.append(pool[(state >> 16) % len(pool)])
        mod = direct_sum([realize(l, "K2") for l in picks])
        want = all(l.kind in ("V", "P", "M") for l in picks)
        if is_quasi_dominated(mod) != want:
            ok = False
    res.check("quasi-dominated iff every summand is simple or negligible "
              "(50 random direct sums)", ok)
    return res


def suite_auslander(max_s=4, max_n=4, etas=None):
    """Acceptance 7: the Auslander algebra proposition for m = 1..3."""
    res = SuiteResult("auslander")
    for m in (1, 2, 3):
        rep = verify_auslander_iso(m)
        res.check(f"End(P0+P1) over K{m} is K{m} "
                  f"({len(rep.results)} properties)", rep.ok)
    res.check("K2 skeleton composes associatively with identities",
              skeleton_check(build_skeleton("K2")))
    res.check("DK1 skeleton composes associatively with identities",
              skeleton_check(build_skeleton("DK1")))
    return res


def suite_lemma(max_s=4, max_n=4, etas=None):
    """Acceptance 11: simple-image criterion, both implementations."""
    res = SuiteResult("lemma")
    skel = build_skeleton("K2")
    objs = skel.objects
    agree = True
    count = 0
    for i in range(2):
        for k in range(2):
            hb = skel.homs[(i, k)]
            for coeffs in iproduct((-2, -1, 0, 1, 2), repeat=len(hb)):
                if all(c == 0 for c in coeffs):
                    continue
                phi = RatMatrix.zeros(objs[k].dim, objs[i].dim)
                for c, h in zip(coeffs, hb):
                    if c:
                        phi = phi + h.scale(Rat(c))
                if phi.is_zero():
                    continue
                count += 1
                if has_simple_image_direct(phi, objs[i], objs[k]) != \
                        has_simple_image_lemma(phi, skel, i, k):
                    agree = False
    res.check(f"direct and hom-criterion implementations agree on "
              f"{count} maps", agree)
    return res


SUITES = {
    "hopf": suite_hopf,
    "fusion": suite_fusion,
    "greenring": suite_greenring,
    "ideals": suite_ideals,
    "auslander": suite_auslander,
    "lemma": suite_lemma,
}


def render_report(results):
    """(ok, report) for suite results in canonical order."""
    ok = all(r.ok for r in results)
    report = "\n".join(r.render() for r in results)
    report += f"\noverall: {'PASS' if ok else 'FAIL'}"
    return ok, report


def run_suites(names, max_s=4, max_n=4, etas=None):
    """Run the named suites in canonical order; returns (ok, report)."""
    order = [n for n in SUITES if n in names]
    return render_report([SUITES[n](max_s=max_s, max_n=max_n, etas=etas)
                          for n in order])
