"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def first_rounds(rounds, k):
    return [next(rounds) for _ in range(k)]


def test_generator_is_deterministic_per_seed():
    pairs = lambda seed: workloads.OracleK2().rounds(seed)
    assert list(pairs(5)) == list(pairs(5))
    assert list(pairs(5)) != list(pairs(6))
    dense = lambda seed: first_rounds(workloads.dense_rounds(seed), 3)
    assert dense(5) == dense(5)
    assert dense(5) != dense(6)


@pytest.mark.parametrize("workload, n_pairs", [
    (workloads.OracleK2, 36 * 36), (workloads.NegligibleK2, 1200)])
def test_pairs_are_distinct_and_rounds_stratified(workload, n_pairs):
    wl = workload()
    assert len(wl.labels) == 36
    rounds = list(wl.rounds(11))
    flat = [p for rnd in rounds for p in rnd]
    assert len(flat) == len(set(flat)) == n_pairs
    assert set(flat) <= {(a, b) for a in wl.labels for b in wl.labels}
    ranked = sorted(map(workloads.product_dim, flat))
    size = len(flat) // wl.strata
    for rnd in rounds:
        # one pair from each cost stratum: the k-th cheapest pair of the
        # round lies within the k-th stratum's cost range
        for k, c in enumerate(sorted(map(workloads.product_dim, rnd))):
            assert ranked[k * size] <= c <= ranked[(k + 1) * size - 1]


def test_dense_items_have_the_stated_shape():
    for rnd in first_rounds(workloads.dense_rounds(3), 4):
        dims = []
        for labels, steps in rnd:
            assert 2 <= len(labels) <= 3
            assert all(t in workloads.DENSE_LABELS for t in labels)
            dim = sum(workloads.label_dim(t) for t in labels)
            assert len(steps) == dim
            dims.append(dim)
        assert sorted(dims) == list(workloads.DENSE_DIMS)


def test_basis_change_is_inverted_exactly():
    g, g_inv = workloads.basis_change(6, [(0, 1, 1), (2, 0, -1), (5, 3, 1)])
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    assert workloads.matmul(g, g_inv) == ident
    assert workloads.matmul(g_inv, g) == ident


def test_oracle_setup_realizes_every_label_identify_can_meet():
    from greenring.green import green_mul_labels
    from greenring.indec import IndecLabel
    realized = set(workloads.ORACLE_REALIZED)
    for a in workloads.PAIR_LABELS:
        for b in workloads.PAIR_LABELS:
            product = green_mul_labels(IndecLabel.parse(a),
                                       IndecLabel.parse(b))
            for lbl in product.coeffs:
                twin = IndecLabel(lbl.kind, 1 - lbl.r, s=lbl.s, n=lbl.n,
                                  eta=lbl.eta)
                assert {str(lbl), str(twin)} <= realized


def test_self_time_subtracts_the_union_of_children():
    # 0 [0,10] has children 1 [1,4], 3 [5,6] and 4 [5.5,7]; 2 [2,3] is
    # inside 1; the overlapping 3 and 4 cover [5,7] once
    start = [0.0, 1.0, 2.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 6.0, 7.0]
    parent = [spans.ROOT, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx(
        [5.0, 2.0, 1.0, 1.0, 1.5])


def test_wrapped_calls_nest_and_count():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "outer",
                        attr=lambda args, res: res)
    tracer.current_op = 0
    op = tracer.open(tracer.code("op"))
    assert outer(2) == 9
    tracer.close(op)
    names = [tracer.names[c] for c in tracer.name]
    assert names == ["op", "outer", "inner", "inner"]
    assert list(tracer.parent) == [spans.ROOT, 0, 1, 1]
    assert tracer.a[1] == 9
    # ticks: op 0-7, outer 1-6, inner 2-3 and 4-5
    assert tracer.self_times() == [2.0, 3.0, 1.0, 1.0]


def test_tracer_reaches_imported_names_and_uninstalls():
    import greenring.green as green
    import greenring.indec as indec
    import greenring.rep as rep
    originals = (rep.decompose, indec.decompose, green.identify,
                 rep.RatMatrix.__mul__)
    tracer = spans.Tracer()
    tracer.locate()
    tracer.install()
    try:
        for now, before in zip((rep.decompose, indec.decompose,
                                green.identify, rep.RatMatrix.__mul__),
                               originals):
            assert now is not before and now.__wrapped__ is before
    finally:
        tracer.uninstall()
    assert (rep.decompose, indec.decompose, green.identify,
            rep.RatMatrix.__mul__) == originals


def test_wrong_answers_and_errors_are_counted_not_raised():
    from greenring.errors import Unclassified

    class WrongExpected(workloads.IdentifyDense):
        def prepare(self, item):
            inp = super().prepare(item)
            return inp[:3] + (Counter(["V(0)", "V(1)"]),)

    class Raising(workloads.IdentifyDense):
        def run(self, inp):
            raise Unclassified("deliberate")

    round_ = [next(workloads.dense_rounds(2))[0]] * 2
    outcomes = {}
    for cls in (workloads.IdentifyDense, WrongExpected, Raising):
        wl = cls()
        wl.setup()
        wl.bind()
        m = run.measure(wl, iter([round_]), seconds=1e-9)
        outcomes[cls.__name__] = (m.attempted, m.failed, m.errors)
    assert outcomes == {"IdentifyDense": (2, 0, {}),
                        "WrongExpected": (2, 2, {}),
                        "Raising": (2, 2, {"Unclassified": 2})}


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-k2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
