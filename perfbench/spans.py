"""Spans around the library's layer entry points, recorded from outside.

The tracer rebinds module attributes and class methods of the greenring
package at run time: every module attribute that holds a wrapped function
is rebound, so a name imported into another module (indec.decompose,
green.identify, ...) is traced too, and recursion through a module global
is traced at every level.  uninstall() puts the originals back, so an
untraced operation runs the library's own code with no wrapper at all.

Spans live in flat arrays in memory and are written out once, at the end
of the run.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

ROOT = -1  # parent of a span opened with no span around it
SETUP_OP = -1  # op id of spans recorded during set-up


def _first_len(args, result):
    return len(args[0])


def _truth(args, result):
    return int(bool(result))


def _peeled(args, result):
    return len(result[0])


def _iso_hit(args, result):
    return int(result[0])


def _hom_size(args, result):
    return args[0].dim * args[1].dim, len(result)


# (module, attribute path, span name, attribute function).  The attribute
# function maps (args, result) to one count, or to two for hom_basis.
TARGETS = (
    ("greenring.ratlin", "_echelon", "ratlin.echelon", _first_len),
    ("greenring.ratlin", "RatMatrix.__mul__", "ratlin.matmul", None),
    ("greenring.ratlin", "RatMatrix.power", "ratlin.power", None),
    ("greenring.ratlin", "SpanRREF.add", "ratlin.span_add", _truth),
    ("greenring.hopf", "build_km", "hopf.setup", None),
    ("greenring.hopf", "build_dk1", "hopf.setup", None),
    ("greenring.hopf", "jacobson_radical", "hopf.setup", None),
    ("greenring.rep", "tensor", "rep.tensor", None),
    ("greenring.rep", "hom_basis", "rep.hom_basis", _hom_size),
    ("greenring.rep", "decompose", "rep.decompose", None),
    ("greenring.rep", "_peel_projectives", "rep.peel", _peeled),
    ("greenring.rep", "submodule", "rep.submodule", None),
    ("greenring.rep", "quotient_module", "rep.quotient", None),
    ("greenring.rep", "_meataxe", "rep.meataxe", None),
    ("greenring.rep", "_meataxe_idempotent", "rep.idempotent", None),
    ("greenring.rep", "_split_idempotent", "rep.split_idempotent", None),
    ("greenring.rep", "is_isomorphic", "rep.is_isomorphic", _iso_hit),
    ("greenring.indec", "realize", "indec.realize", None),
    ("greenring.indec", "_realize_fresh", "indec.realize_miss", None),
    ("greenring.indec", "identify", "indec.identify", None),
    ("greenring.indec", "identify_indecomposable", "indec.identify_summand",
     None),
    ("greenring.green", "green_mul_oracle", "green.oracle", None),
    ("greenring.green", "green_mul_labels", "green.closed_form", None),
    ("greenring.ideal", "is_negligible", "ideal.is_negligible", None),
)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._codes = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.a = array("q")
        self.b = array("q")
        self.stack = [ROOT]
        self.current_op = SETUP_OP
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- recording -----------------------------------------------------

    def code(self, name):
        c = self._codes.get(name)
        if c is None:
            c = self._codes[name] = len(self.names)
            self.names.append(name)
        return c

    def open(self, code):
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.a.append(0)
        self.b.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name, attr=None):
        code = self.code(name)

        def traced(*args, **kwargs):
            i = self.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attr is not None:
                counts = attr(args, result)
                if isinstance(counts, tuple):
                    self.a[i], self.b[i] = counts
                else:
                    self.a[i] = counts
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def locate(self):
        """Find every place the library holds a target."""
        for modname in dict.fromkeys(t[0] for t in TARGETS):
            importlib.import_module(modname)
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "greenring" or n.startswith("greenring."))
                and m is not None]
        for modname, path, name, attr in TARGETS:
            owner = sys.modules[modname]
            *outer, last = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = self.wrap(original, name, attr)
            self._patches.append((owner, last, original, wrapper))
            if outer:
                continue  # a method: the class is shared by every importer
            for m in mods:
                for key, value in vars(m).items():
                    if value is original and (m, key) != (owner, last):
                        self._patches.append((m, key, original, wrapper))

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- analysis ------------------------------------------------------

    def self_times(self):
        return self_times(self.start, self.end, self.parent)

    def write(self, path, header):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n")
            f.write("id\tname\tstart_s\tend_s\tparent\top\ta\tb\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                        f"{self.a[i]}\t{self.b[i]}\n")


def self_times(start, end, parent):
    """Duration of each span minus the union of its children's intervals.

    Spans are indexed in the order they were opened, so the children of a
    span appear in order of their start; each is clipped to its parent.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # end of the covered part of each span so far
    for i in range(n):
        p = parent[i]
        if p == ROOT:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of the timed phase, per operation where noted."""
    names = tracer.names
    name_of = [names[c] for c in tracer.name]
    selfs = tracer.self_times()
    ops = tracer.op
    calls, self_s, sum_a, sum_b = {}, {}, {}, {}
    for i, nm in enumerate(name_of):
        if ops[i] == SETUP_OP:
            continue
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + selfs[i]
        sum_a[nm] = sum_a.get(nm, 0) + tracer.a[i]
        sum_b[nm] = sum_b.get(nm, 0) + tracer.b[i]

    def per_op(table, nm):
        return table.get(nm, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    # counts that depend on the name of a span's parent
    fitting_candidates = candidates = 0
    split_parents = set()
    outer_decompose = 0.0
    for i, nm in enumerate(name_of):
        if ops[i] == SETUP_OP:
            continue
        p = tracer.parent[i]
        pname = name_of[p] if p != ROOT else None
        if nm == "ratlin.power" and pname == "rep.meataxe":
            fitting_candidates += 1
        elif nm == "rep.decompose":
            if pname == "rep.meataxe":
                split_parents.add(p)
            q = p
            while q != ROOT and name_of[q] != "rep.decompose":
                q = tracer.parent[q]
            if q == ROOT:
                outer_decompose += tracer.end[i] - tracer.start[i]
        elif nm == "rep.is_isomorphic" and pname == "indec.identify_summand":
            candidates += 1
    fitting_splits = len(split_parents)
    setup_hopf = sum(s for s, nm, o in zip(selfs, name_of, ops)
                     if o == SETUP_OP and nm == "hopf.setup")

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("ratlin.echelon.calls", per_op(calls, "ratlin.echelon"), "count/op")
    put("ratlin.echelon.rows", per_op(sum_a, "ratlin.echelon"), "count/op")
    put("ratlin.echelon.self_s", per_op(self_s, "ratlin.echelon"), "s/op")
    put("ratlin.matmul.calls", per_op(calls, "ratlin.matmul"), "count/op")
    put("ratlin.matmul.self_s", per_op(self_s, "ratlin.matmul"), "s/op")
    put("ratlin.span_add.calls", per_op(calls, "ratlin.span_add"), "count/op")
    put("ratlin.span_add.self_s", per_op(self_s, "ratlin.span_add"), "s/op")
    put("ratlin.span_add.useful_ratio",
        ratio(sum_a.get("ratlin.span_add", 0), calls.get("ratlin.span_add")),
        "ratio")
    put("hopf.setup.self_s", setup_hopf, "s")
    put("rep.tensor.calls", per_op(calls, "rep.tensor"), "count/op")
    put("rep.tensor.self_s", per_op(self_s, "rep.tensor"), "s/op")
    put("rep.hom_basis.calls", per_op(calls, "rep.hom_basis"), "count/op")
    put("rep.hom_basis.unknowns", per_op(sum_a, "rep.hom_basis"), "count/op")
    put("rep.hom_basis.kernel_dim", per_op(sum_b, "rep.hom_basis"),
        "count/op")
    put("rep.hom_basis.self_s", per_op(self_s, "rep.hom_basis"), "s/op")
    put("rep.decompose.calls", per_op(calls, "rep.decompose"), "count/op")
    put("rep.decompose.total_s", outer_decompose / n_ops, "s/op")
    put("rep.peel.calls", per_op(calls, "rep.peel"), "count/op")
    put("rep.peel.summands", per_op(sum_a, "rep.peel"), "count/op")
    put("rep.peel.self_s", per_op(self_s, "rep.peel"), "s/op")
    put("rep.submodule.calls", per_op(calls, "rep.submodule"), "count/op")
    put("rep.submodule.self_s", per_op(self_s, "rep.submodule"), "s/op")
    put("rep.quotient.calls", per_op(calls, "rep.quotient"), "count/op")
    put("rep.quotient.self_s", per_op(self_s, "rep.quotient"), "s/op")
    put("rep.meataxe.calls", per_op(calls, "rep.meataxe"), "count/op")
    put("rep.meataxe.self_s", per_op(self_s, "rep.meataxe"), "s/op")
    put("rep.fitting.candidates", fitting_candidates / n_ops, "count/op")
    put("rep.fitting.splits", fitting_splits / n_ops, "count/op")
    put("rep.fitting.useful_ratio", ratio(fitting_splits, fitting_candidates),
        "ratio")
    put("rep.idempotent.calls", per_op(calls, "rep.idempotent"), "count/op")
    put("rep.idempotent.self_s", per_op(self_s, "rep.idempotent"), "s/op")
    put("rep.split_idempotent.calls", per_op(calls, "rep.split_idempotent"),
        "count/op")
    put("rep.is_isomorphic.calls", per_op(calls, "rep.is_isomorphic"),
        "count/op")
    put("rep.is_isomorphic.self_s", per_op(self_s, "rep.is_isomorphic"),
        "s/op")
    put("rep.is_isomorphic.hit_ratio",
        ratio(sum_a.get("rep.is_isomorphic", 0),
              calls.get("rep.is_isomorphic")), "ratio")
    put("indec.realize.calls", per_op(calls, "indec.realize"), "count/op")
    put("indec.realize.misses", calls.get("indec.realize_miss", 0), "count")
    put("indec.identify.calls", per_op(calls, "indec.identify"), "count/op")
    put("indec.identify.self_s",
        per_op(self_s, "indec.identify")
        + per_op(self_s, "indec.identify_summand"), "s/op")
    put("indec.identify.candidates_per_summand",
        ratio(candidates, calls.get("indec.identify_summand")), "count")
    put("green.oracle.calls", per_op(calls, "green.oracle"), "count/op")
    put("green.closed_form.self_s", per_op(self_s, "green.closed_form"),
        "s/op")
    put("ideal.is_negligible.calls", per_op(calls, "ideal.is_negligible"),
        "count/op")
    put("ideal.is_negligible.self_s", per_op(self_s, "ideal.is_negligible"),
        "s/op")
    put("unattributed.self_s", per_op(self_s, "op"), "s/op")
    return m
