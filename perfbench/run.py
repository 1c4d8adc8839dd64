"""Closed-loop benchmark of the greenring library.

    python3 perfbench/run.py --workload oracle-k2 --seed 1 --seconds 30 --trace 0

One process, one caller: each operation starts when the previous one has
returned.  Every answer is checked; an operation that raises or answers
wrongly is counted as failed and the run goes on.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports per-layer
metrics from spans recorded around the library's entry points, and writes
the spans to perfbench/out/.  --workload all runs every workload, each in
a fresh process.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up runs, each in a fresh process; setup_s is their median
MIN_OPS_FOR_P90 = 100

sys.path.insert(0, str(HERE))
from spans import SETUP_OP, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter


def commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed):
    from greenring.ratlin import Rat
    return {"commit": commit(), "python": platform.python_version(),
            "backend": f"{Rat.__module__}.{Rat.__name__}",
            "nproc": os.cpu_count(), "workload": workload.name, "seed": seed,
            "pool": workload.pool()}


class Measurement:
    """Latencies and outcomes of the timed phase."""

    def __init__(self):
        self.latencies = []
        self.untraced = []  # traced runs: the same op with tracing off
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.elapsed = 0.0
        self.rounds = 0


def attempt(workload, inp, m):
    """Run one operation and check it; returns (latency, ok)."""
    t0 = clock()
    try:
        result = workload.run(inp)
    except Exception as e:  # a failed operation is counted, not fatal
        latency = clock() - t0
        _record_error(m, e)
        return latency, False
    latency = clock() - t0
    try:
        ok = bool(workload.check(inp, result))
    except Exception as e:
        _record_error(m, e)
        return latency, False
    return latency, ok


def _record_error(m, e):
    kind = type(e).__name__
    if not m.errors:
        traceback.print_exception(e, file=sys.stderr)
    m.errors[kind] = m.errors.get(kind, 0) + 1


def measure(workload, rounds, seconds, tracer=None):
    """Run whole rounds until `seconds` of timed work have passed.

    Inputs of a round are prepared before its clock starts.  With a
    tracer, every operation runs twice, once with tracing off and once
    with it on, in alternating order, so that the overhead of tracing is
    measured on the same inputs.
    """
    m = Measurement()
    for rnd in rounds:
        if m.elapsed >= seconds:
            break
        inputs = [workload.prepare(item) for item in rnd]
        t_round = clock()
        for inp in inputs:
            op_id = m.attempted
            m.attempted += 1
            if tracer is None:
                latency, ok = attempt(workload, inp, m)
            else:
                latency, ok = traced_attempt(workload, inp, m, tracer, op_id)
            m.latencies.append(latency)
            if not ok:
                m.failed += 1
        m.elapsed += clock() - t_round
        m.rounds += 1
    return m


def traced_attempt(workload, inp, m, tracer, op_id):
    """The operation traced and untraced, in an order alternating by op."""
    def untraced():
        latency, ok = attempt(workload, inp, m)
        m.untraced.append(latency)
        return ok

    ok = untraced() if op_id % 2 == 0 else True
    tracer.current_op = op_id
    tracer.install()
    span = tracer.open(tracer.code("op"))
    try:
        latency, ok_traced = attempt(workload, inp, m)
    finally:
        tracer.close(span)
        tracer.uninstall()
        tracer.current_op = SETUP_OP
    ok = ok_traced and ok
    if op_id % 2 == 1:
        ok = untraced() and ok
    return latency, ok


def setup_probe(name):
    """Child process: one set-up from a fresh interpreter; prints seconds."""
    t0 = clock()
    WORKLOADS[name]().setup()
    print(json.dumps({"setup_s": clock() - t0}))


def setup_samples(name, n):
    """Set-up times of n - 1 fresh child processes."""
    out = []
    for _ in range(n - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=170, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name]()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.locate()
        tracer.install()
        setups = []
    else:
        setups = setup_samples(name, SETUP_SAMPLES)
    t0 = clock()
    workload.setup()
    setups.append(clock() - t0)
    if tracer is not None:
        tracer.uninstall()
    workload.bind()
    env = environment(workload, seed)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))

    m = measure(workload, workload.rounds(seed), seconds, tracer)
    lat_ms = [x * 1000 for x in m.latencies]
    n = len(lat_ms)
    print(f"  ops {m.attempted} in {m.rounds} rounds, {m.elapsed:.3f} s "
          f"timed; failed {m.failed}"
          + (f" {m.errors}" if m.errors else ""))
    if n < MIN_OPS_FOR_P90:
        print(f"  note: {n} ops, fewer than {MIN_OPS_FOR_P90}: p90 has "
              "fewer than 10 samples beyond it")
    if tracer is None:
        deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(m.attempted / m.elapsed, "1/s"),
            "op_ms_p50": metric(deciles[4], "ms"),
            "op_ms_p90": metric(deciles[8], "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        shown = dict(metrics)
        shown["fail_frac"] = metric(m.failed / m.attempted, "ratio")
        print(f"  setup samples (s): {[round(s, 4) for s in setups]}")
    else:
        metrics = traced_metrics(tracer, m)
        shown = metrics
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(path, json.dumps(env, sort_keys=True))
        print(f"  {len(tracer.start)} spans written to "
              f"{path.relative_to(ROOT)}")
        print_shares(metrics)
    for key, val in shown.items():
        print(f"  {key:<42} {val['value']:>14.6g} {val['unit']}")
    return {"correct": m.failed == 0, "attempted": m.attempted,
            "failed": m.failed, "metrics": metrics}


def traced_metrics(tracer, m):
    n = m.attempted
    out = {k: metric(v, u) for k, (v, u) in layer_metrics(tracer, n).items()}
    traced_s, untraced_s = sum(m.latencies), sum(m.untraced)
    out["trace.op_s"] = metric(traced_s / n, "s/op")
    out["trace.spans"] = metric(len(tracer.start) / n, "count/op")
    out["trace.ops_per_s_traced"] = metric(n / traced_s, "1/s")
    out["trace.ops_per_s_untraced"] = metric(n / untraced_s, "1/s")
    out["trace.overhead_frac"] = metric(traced_s / untraced_s - 1, "ratio")
    return out


def print_shares(metrics):
    """Self time of each layer as a share of traced operation time."""
    op_s = metrics["trace.op_s"]["value"]
    rows = sorted(((v["value"] / op_s, k) for k, v in metrics.items()
                   if v["unit"] == "s/op" and k != "trace.op_s"
                   and k != "rep.decompose.total_s"), reverse=True)
    print("  share of operation time (self):")
    for share, key in rows:
        if share >= 0.005:
            print(f"    {key:<40} {share:7.1%}")


def run_all(args):
    """Every workload in a fresh process; a combined summary line last."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}/{key}"] = val
    return total


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.setup_probe and args.workload == "all":
        p.error("--setup-probe needs one workload")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "greenring" / "__init__.py").is_file():
        print(f"perfbench: no greenring package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
