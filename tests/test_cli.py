"""Command-line front end: parsing, commands, exit codes, JSON output."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from greenring.cli import (MAX_LABEL_DIM, eval_as_green, eval_as_module, main,
                           parse_expr)
from greenring.errors import ExprSyntaxError
from greenring.indec import IndecLabel, realize
from greenring.hopf import build_km
from greenring.rep import direct_sum, trivial_module
from test_indec import _scrambled, repeated_summand_module


def test_parse_expr_shapes():
    e = parse_expr("2*P(0) + dual(O(+1,0)) * V(1)")
    assert e.kind == "sum"
    with pytest.raises(ExprSyntaxError):
        parse_expr("P(0) +")
    with pytest.raises(ExprSyntaxError):
        parse_expr("Q(0)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("P(0) P(1)")


def test_eval_consistency():
    e = parse_expr("V(1) * (P(0) + 2*V(0))")
    mod = eval_as_module(e, "K2")
    green = eval_as_green(e, "K2")
    assert mod.dim == sum(l.dim() * c for l, c in green.coeffs.items())


def test_fuse_agreement(capsys):
    assert main(["fuse", "O(+1,0) * M(2,0,1)"]) == 0
    out = capsys.readouterr().out
    assert "oracle:" in out and "closed form:" in out
    assert out.count("2*P(1) + M(2,1,1)") == 2


@pytest.mark.parametrize("expr", ["O(+4,0)*O(+5,0)", "O(+8,0)*O(+8,0)",
                                  "O(-4,1)*O(-5,0)", "O(+9,0)*V(0)"])
def test_fuse_products_of_deep_syzygies(expr, capsys):
    """Products whose oracle realizes or identifies O(+-s) with s > 8."""
    assert main(["--json", "fuse", expr]) == 0
    assert json.loads(capsys.readouterr().out)["agreement"] is True


def test_fuse_refuses_a_label_above_the_size_limit(capsys):
    assert MAX_LABEL_DIM == 64
    assert main(["fuse", "O(+40,0)*V(0)"]) == 2
    err = capsys.readouterr().err
    assert "O(+40,0) has dimension 81" in err and "Traceback" not in err
    assert main(["negligible", "M(33,0,1)"]) == 2
    # the closed form builds no module, so green-mul has no limit
    assert main(["green-mul", "O(+40,0)*V(0)"]) == 0
    assert capsys.readouterr().out.strip() == "O(+40,0)"


def test_a_scale_factor_above_the_size_limit_is_a_usage_error(capsys):
    """k*X with k, or the product of the nested factors around X, above
    MAX_LABEL_DIM is refused before any module is built, so a huge k ends
    in exit 2, not in a MemoryError."""
    for cmd, expr in (("fuse", "99999999999999999*V(0)"),
                      ("negligible", "99999999999999999*V(0)"),
                      ("qdim", "65*V(0)"),
                      ("fuse", "2*64*V(0)"),
                      ("qdim", "8*16*V(0)")):
        assert main([cmd, expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"at most {MAX_LABEL_DIM}" in err
    assert main(["fuse", "64*V(0)"]) == 0
    assert "64*V(0)" in capsys.readouterr().out
    assert main(["fuse", "8*8*V(0)"]) == 0


def test_fuse_json(capsys):
    assert main(["--algebra", "DK1", "--json", "fuse", "St(0) * St(0)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agreement"] is True
    assert payload["result"] == [{"coeff": 1, "label": "P(1)"}]


def test_green_mul(capsys):
    assert main(["green-mul", "O(+1,0) * O(+1,0)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "P(0) + O(+2,0)"


def test_identify_roundtrip(tmp_path, capsys):
    mod = realize(IndecLabel.parse("M(2,1,2/3)"), "K2")
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(mod.to_json_dict()))
    assert main(["identify", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "M(2,1,2/3)"


def test_identify_repeated_summand(tmp_path, capsys):
    """O(+1,0)^2 + O(-1,1) in the basis where the End(M) meataxe had to
    sample a difference of two End/rad basis elements to split O(+1,0)^2;
    the Kronecker route reads both copies off one pencil."""
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(repeated_summand_module().to_json_dict()))
    assert main(["identify", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2*O(+1,0) + O(-1,1)"


def test_identify_over_dk1(tmp_path, capsys):
    """A DK1 module in a basis that mixes its bc blocks: the bc = 1 block
    takes the K2 route and the Steinberg copies are read off bc = -1."""
    mod = direct_sum([realize(IndecLabel.parse(t), "DK1")
                      for t in ("St(1)", "O(+1,0)", "St(0)")])
    mod = _scrambled(mod, random.Random(2))
    bc = mod.actions["b"] * mod.actions["c"]
    assert any(i != j for i, j in bc.int_form()[0]), "bc is diagonal"
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(mod.to_json_dict()))
    assert main(["identify", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "O(+1,0) + St(0) + St(1)"


@pytest.mark.parametrize("m", (1, 3))
def test_identify_rejects_a_module_over_an_algebra_with_no_labels(
        tmp_path, capsys, m):
    """A K1 or K3 module is a usage error, with no traceback."""
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(trivial_module(build_km(m)).to_json_dict()))
    assert main(["identify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"not K{m} ones" in err


def test_identify_missing_file(capsys):
    assert main(["identify", "/nonexistent/mod.json"]) == 2


def _k2_file(tmp_path, actions):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({"algebra": "K2", "dim": 2,
                                "actions": actions}))
    return str(path)


ZERO2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("actions", [
    # ragged action matrix
    {"K": [["1", "0"], ["0"]], "x1": ZERO2, "x2": ZERO2},
    # K^2 != 1: not a module
    {"K": [["2", "0"], ["1", "1"]], "x1": ZERO2, "x2": ZERO2},
    # missing generator
    {"K": [["1", "0"], ["0", "-1"]], "x1": ZERO2},
], ids=["ragged", "non-module", "missing-generator"])
def test_identify_rejects_bad_module_files(tmp_path, capsys, actions):
    assert main(["identify", _k2_file(tmp_path, actions)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_identify_module_with_no_label(tmp_path, capsys):
    """The band module with residue field Q(i) is indecomposable over Q,
    but no label names it."""
    path = tmp_path / "mod.json"
    x1 = [["0"] * 4, ["0"] * 4, ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    x2 = [["0"] * 4, ["0"] * 4, ["0", "-1", "0", "0"], ["1", "0", "0", "0"]]
    k = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
         ["0", "0", "0", "-1"]]
    path.write_text(json.dumps({"algebra": "K2", "dim": 4,
                                "actions": {"K": k, "x1": x1, "x2": x2}}))
    assert main(["identify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "residue field" in err
    assert "Traceback" not in err


def test_identify_summand_with_no_matching_label_is_a_failure(
        tmp_path, capsys, monkeypatch):
    """A summand whose residue field is Q and whose witness fails is a
    verification failure (exit 1), not a module that no label names."""
    import greenring.rep as rep
    from greenring.ratlin import RatMatrix
    split = rep._kronecker_split

    def singular(m):
        # the split's basis change with its first column zeroed: on
        # V(0) + V(1) it still intertwines, but it is singular
        shapes, g = split(m)
        return shapes, g * RatMatrix.diagonal([0] + [1] * (g.cols - 1))

    monkeypatch.setattr(rep, "_kronecker_split", singular)
    path = _k2_file(tmp_path, {"K": [["1", "0"], ["0", "-1"]],
                               "x1": ZERO2, "x2": ZERO2})
    assert main(["identify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "witness check" in err
    assert "Traceback" not in err


def _band_file(tmp_path, coeffs):
    """The K2 band module of the monic f = t^k + c_(k-1) t^(k-1) + ... +
    c_0, coeffs = [c_0, ..., c_(k-1)]: x1 = I and x2 = the companion
    matrix of f, from the K = 1 block to the K = -1 block."""
    k = len(coeffs)
    n = 2 * k
    zero = [["0"] * n for _ in range(n)]
    k_rows = [[str(int(i == j) * (1 if i < k else -1)) for j in range(n)]
              for i in range(n)]
    x1 = [row[:] for row in zero]
    x2 = [row[:] for row in zero]
    for i in range(k):
        x1[k + i][i] = "1"
        x2[k + i][k - 1] = str(-coeffs[i])
        if i:
            x2[k + i][i - 1] = "1"
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"algebra": "K2", "dim": n, "actions": {
        "K": k_rows, "x1": x1, "x2": x2}}))
    return str(path)


@pytest.mark.parametrize("coeffs, degree", (
    ([-2, 0, 0, 0], 4),      # t^4 - 2
    ([1, 0, 0, 0], 4),       # t^4 + 1
    ([-3, 0, 0, 0, 0], 5),   # t^5 - 3
    ([-1, 1, -1], 2),        # (t - 1)(t^2 + 1): M(1,.,1) and a band
), ids=["t4-2", "t4+1", "t5-3", "(t-1)(t2+1)"])
def test_identify_band_at_a_point_of_degree_above_1_is_a_usage_error(
        tmp_path, capsys, coeffs, degree):
    """A regular part at points of P^1 with no rational representative has
    no label: exit 2, naming the degree left over, with no traceback."""
    assert main(["identify", _band_file(tmp_path, coeffs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"residue field has degree {degree}" in err


def test_committed_band_file_is_the_band_of_t4_minus_2(tmp_path):
    """tests/data/band_t4_minus_2.json, which CI runs through the installed
    command, is the band of t^4 - 2."""
    data = Path(__file__).parent / "data" / "band_t4_minus_2.json"
    made = Path(_band_file(tmp_path, [-2, 0, 0, 0]))
    assert json.loads(data.read_text()) == json.loads(made.read_text())


def test_committed_syzygy_file_is_omega_minus_3_of_v1(capsys):
    """tests/data/omega_minus3_r1.json, which CI runs through the installed
    command, is syzygy(-3, 1) in its own basis, not in its Kronecker
    block's, and identify names it O(-3,1)."""
    from greenring.indec import label_shape, syzygy
    from greenring.rep import kronecker_block
    data = Path(__file__).parent / "data" / "omega_minus3_r1.json"
    m = syzygy(-3, 1)
    assert json.loads(data.read_text()) == m.to_json_dict()
    block = kronecker_block(label_shape(IndecLabel.parse("O(-3,1)")))
    assert m.actions != block.actions
    assert main(["identify", str(data)]) == 0
    assert capsys.readouterr().out.strip() == "O(-3,1)"


def test_identify_a_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["identify", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_identify_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "mod.json"
    path.write_bytes(b'{"algebra": "K2\xff\xfe"}')
    assert main(["identify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_identify_non_diagonal_k(tmp_path, capsys):
    path = _k2_file(tmp_path, {"K": [["1", "1"], ["0", "-1"]],
                               "x1": ZERO2, "x2": ZERO2})
    assert main(["identify", path]) == 0
    assert capsys.readouterr().out.strip() == "V(0) + V(1)"


def test_ideal_closure_and_contains(tmp_path, capsys):
    assert main(["ideal", "closure", "M(2,0,0)", "M(1,0,inf)"]) == 0
    spec_text = capsys.readouterr().out
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    assert main(["ideal", "contains", str(path), "M(1,1,0) + 3*P(0)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["ideal", "contains", str(path), "V(0)"]) == 0
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"foo": 1},
    {"proper": "yes"},
    {"support": {"eta": "0", "bound": "2"}},
    {"support": [{"eta": "0"}]},
    {"support": [{"bound": "2"}]},
    {"support": [{"eta": 0, "bound": "2"}]},
    {"support": [{"eta": "0", "bound": "0"}]},
    {"support": [{"eta": "0", "bound": 1.5}]},
    {"default": "x"},
    {"default": True},
    {"support": [{"eta": "0", "bound": "5"}, {"eta": "0/3", "bound": "2"}]},
], ids=["non-object", "unknown-key", "proper-not-bool", "support-not-list",
        "no-bound", "no-eta", "eta-not-string", "zero-bound",
        "float-bound", "text-default", "bool-default", "repeated-eta"])
def test_ideal_contains_rejects_bad_specs(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["ideal", "contains", str(path), "V(0)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_ideal_contains_usage_error():
    assert main(["ideal", "contains"]) == 2


def test_negligible_and_qdim(capsys):
    assert main(["negligible", "P(0) + M(1,0,1)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["negligible", "V(1)"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["qdim", "O(+2,1)"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["qdim", "2*V(1) * V(1)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_negligible_of_large_products(capsys):
    """A product of dimension 1056: its free part is peeled off, so only
    the remainder's hom system is solved."""
    assert main(["negligible", "M(16,0,1)*O(+16,0)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["negligible", "O(+8,0)*O(-8,1)"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_negligible_of_a_large_dk1_product_within_a_minute():
    """The same product over DK1: its bc = -1 block is projective, so only
    the K2 test on its bc = 1 block runs, in a process given 60 s."""
    done = subprocess.run(
        [sys.executable, "-m", "greenring.cli", "--algebra", "DK1",
         "negligible", "M(16,0,1)*O(+16,0)"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "true"


def test_auslander(capsys):
    assert main(["auslander", "2"]) == 0
    assert "isomorphism verified" in capsys.readouterr().out


@pytest.mark.parametrize("m", ["0", "4", "-1"])
def test_auslander_rejects_m_outside_1_to_3(m, capsys):
    assert main(["auslander", m]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice" in err
    assert "Traceback" not in err


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "hopf"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_verify_custom_etas(capsys):
    args = ["verify", "--suite", "ideals", "--etas", "0,1,-1,2/3,5/7",
            "--max-s", "1", "--max-n", "1"]
    assert main(args) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [
    ["--etas", "0,1"],          # the suites read the first five etas
    ["--etas", "0,1,0,1,0"],    # five values, two distinct
    ["--etas", "0,1,2,3,3,4"],  # five distinct, but etas[3] == etas[4]
    ["--etas", "0,1,-1,2/3,x"],
    ["--max-s", "0"],
    ["--max-n", "0"],
    ["--max-s", "-1"],
])
def test_verify_rejects_short_sweeps(bad, capsys):
    assert main(["verify", "--suite", "ideals", *bad]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_parse_error_exit_code(capsys):
    assert main(["fuse", "P(0) *"]) == 2
    assert main(["green-mul", "St(0)"]) == 2  # St invalid over K2
    assert main(["qdim", "V(7)"]) == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


NINES = "9" * 5000  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("argv, file_text", [
    (["green-mul", f"V({NINES})"], None),
    (["green-mul", f"O(+{NINES},0)"], None),
    (["green-mul", f"M({NINES},0,1)"], None),
    (["green-mul", f"{NINES}*V(0)"], None),
    (["ideal", "contains", "FILE", "V(0)"],
     '{"support": [{"eta": "0", "bound": "%s"}]}' % NINES),
    (["ideal", "contains", "FILE", "V(0)"], '{"default": %s}' % NINES),
    (["identify", "FILE"],
     '{"algebra": "K2", "dim": %s, "actions": {}}' % NINES),
], ids=["V", "O", "M", "scale", "spec-bound", "spec-json", "module-json"])
def test_an_integer_with_too_many_digits_is_a_usage_error(
        tmp_path, capsys, argv, file_text):
    """int() refuses a decimal string of more than 4300 digits with a
    ValueError; each place that parses one turns it into a usage error.
    The files are written as raw text, since json.dumps hits the same
    limit."""
    if file_text is not None:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err) < 500  # the digits are counted, not echoed
