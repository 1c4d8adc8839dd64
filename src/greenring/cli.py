"""Command-line front end.

Commands: fuse, identify, green-mul, ideal, negligible, qdim, auslander,
verify.  Expressions follow the grammar

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := INT '*' factor | 'dual' '(' expr ')' | label | '(' expr ')'

with labels in the V(r) / P(r) / O(+s,r) / O(-s,r) / M(n,r,eta) / St(r)
syntax.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, malformed input file, a module that no label names, or a
label or a product of nested integer factors above MAX_LABEL_DIM in a
command that builds modules.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import (AlgebraMismatch, ExprSyntaxError, GreenRingError,
                     InvalidIdealSpec, InvalidLabel, InvalidModule,
                     OutOfRange, Unclassified)
from .green import GreenElement, green_mul
from .ideal import (IdealSpec, ideal_closure, ideal_contains, is_negligible,
                    qdim)
from .indec import EtaPoint, IndecLabel, identify, realize
from .projcat import verify_auslander_iso
from .ratlin import rat_to_str
from .rep import (ModuleRep, check_module, direct_sum, dual, tensor,
                  zero_module)
from .verify import SUITES, run_suites


# ---------------------------------------------------------------------
# expression parsing


class Expr:
    """Abstract syntax: Label | Dual | Tensor | Sum | Scale."""

    def __init__(self, kind, *parts):
        self.kind = kind
        self.parts = parts

    def __repr__(self):
        return f"Expr({self.kind}, {self.parts})"


_LABEL_RE = re.compile(
    r"V\(\d+\)|P\(\d+\)|St\(\d+\)|O\([+-]\d+,\d+\)|M\(\d+,\d+,[^,()]+\)")
_INT_RE = re.compile(r"\d+")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self):
        e = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise ExprSyntaxError("trailing input", self.pos)
        return e

    def expr(self):
        e = self.term()
        while self._peek() == "+":
            self.pos += 1
            e = Expr("sum", e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self._peek() == "*":
            self.pos += 1
            e = Expr("tensor", e, self.factor())
        return e

    def factor(self):
        self._skip()
        rest = self.text[self.pos:]
        m = _LABEL_RE.match(rest)
        if m:
            try:
                lbl = IndecLabel.parse(m.group(0))
            except InvalidLabel as exc:
                raise ExprSyntaxError(str(exc), self.pos)
            self.pos += m.end()
            return Expr("label", lbl)
        if rest.startswith("dual"):
            self.pos += 4
            self._expect("(")
            inner = self.expr()
            self._expect(")")
            return Expr("dual", inner)
        if self._peek() == "(":
            self.pos += 1
            inner = self.expr()
            self._expect(")")
            return inner
        m = _INT_RE.match(rest)
        if m:
            k = int(m.group(0))
            self.pos += m.end()
            self._expect("*")
            return Expr("scale", k, self.factor())
        raise ExprSyntaxError("expected a label, integer, 'dual' or '('",
                              self.pos)


def parse_expr(text):
    return _Parser(text).parse()


# The one size limit: the largest label dimension eval_as_module realizes
# for fuse, negligible and qdim.  It bounds each factor of an expression:
# the dimension of a label, and the product of the integers k around a
# subexpression X in k*X, the number of copies of X built.  green-mul and
# verify have no limit, so nothing stops the oracle on a sweep product.
MAX_LABEL_DIM = 64


def eval_as_module(e, algebra, copies=1):
    """Evaluate an expression to a concrete module, where copies is the
    product of the integer factors around e (a factor 0 counts as 1: its
    operand is still built)."""
    if e.kind == "label":
        lbl = e.parts[0]
        if lbl.dim() > MAX_LABEL_DIM:
            raise OutOfRange(f"{lbl} has dimension {lbl.dim()}; modules are "
                             f"built only for labels of dimension at most "
                             f"{MAX_LABEL_DIM}")
        return realize(lbl, algebra)
    if e.kind == "dual":
        return dual(eval_as_module(e.parts[0], algebra, copies))
    if e.kind == "tensor":
        return tensor(eval_as_module(e.parts[0], algebra, copies),
                      eval_as_module(e.parts[1], algebra, copies))
    if e.kind == "sum":
        return direct_sum([eval_as_module(e.parts[0], algebra, copies),
                           eval_as_module(e.parts[1], algebra, copies)])
    if e.kind == "scale":
        k, inner = e.parts
        copies *= max(k, 1)
        if copies > MAX_LABEL_DIM:
            raise OutOfRange(f"{k}*... repeats a module {copies} times; "
                             f"modules are built only for factors of at most "
                             f"{MAX_LABEL_DIM}")
        mod = eval_as_module(inner, algebra, copies)
        from .hopf import get_algebra
        if k == 0:
            return zero_module(get_algebra(algebra))
        return direct_sum([mod] * k)
    raise GreenRingError(f"unknown expression kind {e.kind}")


def eval_as_green(e, algebra):
    """Evaluate an expression in the Green ring (closed form)."""
    if e.kind == "label":
        lbl = e.parts[0]
        if not lbl.valid_for(algebra):
            raise InvalidLabel(f"{lbl} is not valid over {algebra}")
        return GreenElement.from_label(lbl)
    if e.kind == "dual":
        return eval_as_green(e.parts[0], algebra).dual()
    if e.kind == "tensor":
        return green_mul(eval_as_green(e.parts[0], algebra),
                         eval_as_green(e.parts[1], algebra), algebra)
    if e.kind == "sum":
        return eval_as_green(e.parts[0], algebra) + \
            eval_as_green(e.parts[1], algebra)
    if e.kind == "scale":
        return eval_as_green(e.parts[1], algebra).scale(e.parts[0])
    raise GreenRingError(f"unknown expression kind {e.kind}")


# ---------------------------------------------------------------------
# commands


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_fuse(args):
    e = parse_expr(args.expr)
    mod = eval_as_module(e, args.algebra)
    oracle = GreenElement((lbl, 1) for lbl in identify(mod))
    closed = eval_as_green(e, args.algebra)
    agreement = oracle == closed
    text = f"oracle:      {oracle}\nclosed form: {closed}"
    if not agreement:
        text += "\nDISAGREEMENT between oracle and closed form"
    _emit(args, {"command": "fuse", "inputs": {"expr": args.expr,
                                               "algebra": args.algebra},
                 "result": oracle.to_json_list(),
                 "closed_form": closed.to_json_list(),
                 "agreement": agreement}, text)
    return 0 if agreement else 1


def cmd_identify(args):
    with open(args.file) as fh:
        mod = ModuleRep.from_json_dict(json.load(fh))
    report = check_module(mod)
    if not report:
        raise InvalidModule(
            f"the actions do not define a {mod.algebra.name} module; "
            f"failed: {', '.join(report.failures[:3])}")
    out = GreenElement((lbl, 1) for lbl in identify(mod))
    _emit(args, {"command": "identify", "inputs": {"file": args.file},
                 "result": out.to_json_list()}, str(out))
    return 0


def cmd_green_mul(args):
    e = parse_expr(args.expr)
    out = eval_as_green(e, args.algebra)
    _emit(args, {"command": "green-mul",
                 "inputs": {"expr": args.expr, "algebra": args.algebra},
                 "result": out.to_json_list()}, str(out))
    return 0


def cmd_ideal(args):
    if args.action == "closure":
        gens = [IndecLabel.parse(t) for t in args.labels]
        spec = ideal_closure(gens)
        _emit(args, {"command": "ideal", "inputs": {"closure": args.labels},
                     "result": spec.to_json_dict()},
              json.dumps(spec.to_json_dict()))
        return 0
    # contains SPEC.json EXPR
    if len(args.labels) < 2:
        print("ideal contains needs SPEC.json and an expression",
              file=sys.stderr)
        return 2
    with open(args.labels[0]) as fh:
        spec = IdealSpec.from_json_dict(json.load(fh))
    e = parse_expr(" ".join(args.labels[1:]))
    x = eval_as_green(e, args.algebra)
    member = ideal_contains(spec, x)
    _emit(args, {"command": "ideal",
                 "inputs": {"spec": args.labels[0],
                            "expr": " ".join(args.labels[1:])},
                 "result": member}, "true" if member else "false")
    return 0


def cmd_negligible(args):
    e = parse_expr(args.expr)
    mod = eval_as_module(e, args.algebra)
    neg = is_negligible(mod)
    _emit(args, {"command": "negligible",
                 "inputs": {"expr": args.expr, "algebra": args.algebra},
                 "result": neg}, "true" if neg else "false")
    return 0


def cmd_qdim(args):
    e = parse_expr(args.expr)
    mod = eval_as_module(e, args.algebra)
    q = qdim(mod)
    _emit(args, {"command": "qdim",
                 "inputs": {"expr": args.expr, "algebra": args.algebra},
                 "result": rat_to_str(q)}, rat_to_str(q))
    return 0


def cmd_auslander(args):
    rep = verify_auslander_iso(args.m)
    _emit(args, {"command": "auslander", "inputs": {"m": args.m},
                 "result": rep.results, "agreement": rep.ok},
          "\n".join(rep.lines()))
    return 0 if rep.ok else 1


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok, report = run_suites(names, max_s=args.max_s, max_n=args.max_n,
                            etas=args.etas)
    _emit(args, {"command": "verify",
                 "inputs": {"suite": args.suite, "max_s": args.max_s,
                            "max_n": args.max_n},
                 "result": report.splitlines(), "agreement": ok}, report)
    return 0 if ok else 1


def _positive_int(text):
    """A sweep bound: an integer of at least 1, so no sweep is empty."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _eta_list(text):
    """Comma-separated eta values, at least five and all distinct: the
    suites sample the first five, and a repeat among them would make
    sampled labels equal."""
    try:
        etas = tuple(EtaPoint.parse(t) for t in text.split(","))
    except InvalidLabel as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if len(set(etas)) < len(etas):
        repeated = next(e for k, e in enumerate(etas) if e in etas[:k])
        raise argparse.ArgumentTypeError(f"eta value {repeated} is repeated")
    if len(etas) < 5:
        raise argparse.ArgumentTypeError(
            f"need at least 5 eta values, got {len(etas)}")
    return etas


def build_parser():
    ap = argparse.ArgumentParser(
        prog="greenring",
        description="exact computations in the module categories of the "
                    "Nichols Hopf algebra K2 and the Drinfeld double DK1")
    ap.add_argument("--algebra", choices=["K2", "DK1"], default="K2")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="decompose a tensor expression, "
                       "comparing oracle and closed form")
    p.add_argument("expr")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("identify", help="label the summands of a module "
                       "stored as JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("green-mul", help="evaluate an expression in the "
                       "Green ring (closed form)")
    p.add_argument("expr")
    p.set_defaults(func=cmd_green_mul)

    p = sub.add_parser("ideal", help="tensor-ideal closure or membership")
    p.add_argument("action", choices=["closure", "contains"])
    p.add_argument("labels", nargs="*")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("negligible", help="pivotal-trace negligibility of "
                       "an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_negligible)

    p = sub.add_parser("qdim", help="quantum dimension of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("auslander", help="verify the Auslander algebra "
                       "isomorphism for K_m")
    p.add_argument("m", type=int, choices=(1, 2, 3))
    p.set_defaults(func=cmd_auslander)

    p = sub.add_parser("verify", help="rerun the verification suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"],
                   default="all")
    p.add_argument("--max-s", type=_positive_int, default=4)
    p.add_argument("--max-n", type=_positive_int, default=4)
    p.add_argument("--etas", type=_eta_list,
                   help="comma-separated eta values, at least 5, all distinct")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AlgebraMismatch, ExprSyntaxError, InvalidLabel, InvalidModule,
            InvalidIdealSpec, OutOfRange, Unclassified, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GreenRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
