"""Command-line front end: parsing, commands, exit codes, JSON output."""

import json

import pytest

from greenring.cli import eval_as_green, eval_as_module, main, parse_expr
from greenring.errors import ExprSyntaxError
from greenring.indec import IndecLabel, realize


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
    """A summand whose residue field is Q and that matches no label is a
    verification failure (exit 1), not a module that no label names."""
    import greenring.indec as indec
    # a fresh object per call: no candidate's invariant equals the module's
    monkeypatch.setattr(indec, "_parity_invariant", lambda m, kind: object())
    path = _k2_file(tmp_path, {"K": [["1", "0"], ["0", "-1"]],
                               "x1": ZERO2, "x2": ZERO2})
    assert main(["identify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "matched no classified label" in err
    assert "Traceback" not in err


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
], ids=["non-object", "unknown-key", "proper-not-bool", "support-not-list",
        "no-bound", "no-eta", "eta-not-string", "zero-bound",
        "float-bound", "text-default", "bool-default"])
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
