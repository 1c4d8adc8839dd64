"""Acceptance criteria: one test and one pass/fail line per criterion.

Each criterion is decided at exact equality by the verification suites;
the suites are computed once per session and shared across criteria.
"""

import time
from pathlib import Path

import pytest

from greenring.verify import SUITES, render_report, run_suites

# `greenring verify --suite all` output, pinned: a change that alters any
# check line, count or note shows up here
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all.txt"

_TIMINGS = {}


@pytest.fixture(scope="session")
def suites():
    out = {}
    for name, fn in SUITES.items():
        start = time.monotonic()
        out[name] = fn()
        _TIMINGS[name] = time.monotonic() - start
    for name, secs in _TIMINGS.items():
        print(f"suite {name}: {secs:.2f} s")
    return out


def _passed(suite, fragment):
    """The check lines containing the fragment, as a (reason, ok) pair."""
    hits = [l for l in suite.lines if fragment in l and l.lstrip()[0] == "["]
    assert hits, f"no check line matches {fragment!r}"
    ok = all(l.lstrip().startswith("[pass]") for l in hits)
    return f"suite {suite.name}: check {fragment!r}", ok


def _within(name, budget):
    """The suite's measured time against its budget, as (reason, ok)."""
    secs = _TIMINGS[name]
    return f"suite {name} took {secs:.2f} s, budget {budget:g} s", \
        secs < budget


def _report(number, title, checks):
    """Print the criterion's line; fail naming every check that failed.

    checks is a list of (reason, ok) pairs; the criterion passes when
    every one of them does.
    """
    failed = [reason for reason, ok in checks if not ok]
    print(f"criterion {number:02d} ({title}): "
          f"{'FAIL' if failed else 'PASS'}")
    assert not failed, f"criterion {number:02d} failed: " + "; ".join(failed)


def test_criterion_01_hopf_axioms(suites):
    _report(1, "Hopf axioms for K1..K3 and DK1, under 1s",
            [("suite hopf: all checks", suites["hopf"].ok),
             _within("hopf", 1.0)])


def test_criterion_02_fusion_oracle_agreement(suites):
    s = suites["fusion"]
    _report(2, "closed-form fusion = oracle, s,n <= 4, six etas, "
            "under 30s",
            [_passed(s, "K2 products"),
             _passed(s, "M-family products over the full eta set"),
             _passed(s, "recorded parity witness"),
             _within("fusion", 30.0)])


def test_criterion_03_projective_subtable(suites):
    s = suites["fusion"]
    _report(3, "P(i) x P(j) = 2^(m-1)(P(0)+P(1)) over K1..K3",
            [_passed(s, f"K{m}: P(i) x P(j)") for m in (1, 2, 3)])


def test_criterion_04_presentations(suites):
    s = suites["greenring"]
    _report(4, "presentation relations vanish in both Green rings",
            [_passed(s, "over DK1"), _passed(s, "over K2")])


def test_criterion_05_r0_correspondence(suites):
    s = suites["fusion"]
    _report(5, "the r0 subring matches the K2 Green ring",
            [_passed(s, "in_r0 accepts"), _passed(s, "r0 products agree")])


def test_criterion_06_resolutions(suites):
    s = suites["fusion"]
    _report(6, "resolution multiplicities (k+1) and dims 2s+1",
            [_passed(s, "minimal resolution"), _passed(s, "dim Omega")])


def test_criterion_07_auslander(suites):
    s = suites["auslander"]
    _report(7, "Auslander algebra of K_m is K_m, m = 1..3",
            [_passed(s, f"over K{m}") for m in (1, 2, 3)])


def test_criterion_08_ideal_lattice(suites):
    s = suites["ideals"]
    _report(8, "ideal specs distinguished, improper closures, "
            "tensor stability",
            [_passed(s, "20 sampled ideal specs"),
             _passed(s, "improper ideal"),
             _passed(s, "stable under tensoring")])


def test_criterion_09_negligibility(suites):
    s = suites["ideals"]
    _report(9, "negligibles are projectives, M family and Steinberg; "
            "qdim values",
            [_passed(s, "negligible exactly"), _passed(s, "qdim values")])


def test_criterion_10_quasi_domination(suites):
    _report(10, "quasi-domination on 50 deterministic random sums",
            [_passed(suites["ideals"], "50 random direct sums")])


def test_criterion_11_simple_image_lemma(suites):
    _report(11, "both simple-image implementations agree exhaustively",
            [("suite lemma: all checks", suites["lemma"].ok)])


def test_criterion_12_deterministic_verify():
    first = run_suites(list(SUITES))
    second = run_suites(list(SUITES))
    _report(12, "two full verify runs are byte-identical",
            [("first verify run passes", first[0]),
             ("second verify run passes", second[0]),
             ("the two reports are byte-identical", first[1] == second[1])])


def test_verify_report_matches_golden(suites):
    _, report = render_report([suites[name] for name in SUITES])
    assert report + "\n" == GOLDEN_REPORT.read_text()
