"""End-to-end coverage of the command-line interface."""

from __future__ import annotations

import json

import pytest

from lndfilt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deg_matches_both_ways(capsys):
    code, out, _ = run(capsys, "deg", "--toy", "Y")
    assert code == 0
    assert out.strip() == "2"


def test_deg_constant_and_product(capsys):
    assert run(capsys, "deg", "--toy", "7")[1].strip() == "0"
    code, out, _ = run(capsys, "deg", "--toy", "S*Y*Z")
    assert code == 0
    assert out.strip() == "7"


def test_deg_zero_prints_minus_infinity(capsys):
    code, out, _ = run(capsys, "deg", "--toy", "0")
    assert code == 0
    assert out.strip() == "-infinity"


def test_deg_json_shape(capsys):
    code, out, _ = run(capsys, "deg", "--toy", "--json", "Y")
    data = json.loads(out)
    assert code == 0
    assert data["match"] is True
    assert data["degree"] == 2
    assert data["monomial_formula"] == data["iteration"] == 2


def test_nf_golden(capsys):
    code, out, _ = run(capsys, "nf", "--toy", "Y^2*S")
    assert code == 0
    assert out.strip() == "X^2*Y + X*S*Z"


def test_nf_json_lists_terms(capsys):
    _, out, _ = run(capsys, "nf", "--toy", "--json", "S^2")
    data = json.loads(out)
    assert data["normal_form"] == "X^2*Y"
    assert data["terms"] == [{"x": 2, "s": 0, "y": 1, "z": 0, "c": "1"}]


def test_derive_iterates(capsys):
    code, out, _ = run(capsys, "derive", "--toy", "Z", "--times", "2")
    assert code == 0
    assert out.strip() == "12*X^3*Y"


def test_filtration_grouping(capsys):
    code, out, _ = run(capsys, "filtration", "--toy", "4")
    assert code == 0
    assert out.splitlines() == [
        "degree 0: 1",
        "degree 1: s",
        "degree 2: y",
        "degree 3: s*y",
        "degree 4: z",
    ]


def test_filtration_index_zero(capsys):
    assert run(capsys, "filtration", "--toy", "0")[1].strip() == "degree 0: 1"


def test_filtration_negative_index_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["filtration", "--toy", "-3"])
    assert info.value.code == 2


def test_gr_leading_class(capsys):
    code, out, _ = run(capsys, "gr", "--toy", "Y + S + 3")
    assert code == 0
    assert out.strip() == "[Y]_2"


def test_gr_of_zero_fails(capsys):
    code, _, err = run(capsys, "gr", "--toy", "0")
    assert code == 1
    assert "no leading class" in err


def test_hatideal_lines(capsys):
    code, out, _ = run(capsys, "hatideal", "--toy")
    assert code == 0
    assert out.splitlines() == ["X^2*Y - S^2", "-X*Z + Y^2"]


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(
        json.dumps(
            {"family": "full", "n": 2, "e": 1, "P": ["1", "0"], "Q": ["0", "0"]}
        )
    )
    return str(path)


def test_auto_build_and_verify(capsys, tmp_path, ring_file):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "-1", "mu": "1", "a": "3*X^2"}))
    out_file = tmp_path / "auto.json"
    code, _, _ = run(
        capsys, "auto-build", "--ring", ring_file, "--params", str(params),
        "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["images"]["X"] == "-X"
    code, out, _ = run(capsys, "auto-verify", "--ring", ring_file, "--params", str(params))
    assert code == 0
    assert "pass" in out


def test_auto_with_invalid_parameters(capsys, tmp_path, ring_file):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "1", "mu": "2", "a": "0"}))
    code, _, err = run(capsys, "auto-build", "--ring", ring_file, "--params", str(params))
    assert code == 1
    assert "invalid parameters" in err
    code, out, _ = run(capsys, "auto-verify", "--ring", ring_file, "--params", str(params))
    assert code == 1
    assert "FAIL" in out


def test_auto_missing_params_file(capsys, ring_file):
    with pytest.raises(SystemExit) as info:
        main(["auto-build", "--ring", ring_file, "--params", "/nonexistent.json"])
    assert info.value.code == 2


def test_cyliso_writes_certificate(capsys, tmp_path):
    out_file = tmp_path / "chain.json"
    code, out, _ = run(
        capsys, "cyliso", "-n", "1", "--from", "1", "--to", "2", "--out", str(out_file)
    )
    assert code == 0
    assert "pass" in out
    data = json.loads(out_file.read_text())
    assert data["certificate"]["pass"] is True
    assert data["endo"]["images"]["S"] == "X^2*T + S"


def test_cyliso_equal_twists_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cyliso", "-n", "1", "--from", "2", "--to", "2"])
    assert info.value.code == 2


def test_cyliso_stdout_json(capsys):
    code, out, _ = run(capsys, "cyliso", "-n", "2", "--from", "1", "--to", "2")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["pass"] is True


def test_danielewski_cyliso(capsys, tmp_path):
    out_file = tmp_path / "dan.json"
    code, _, _ = run(
        capsys, "danielewski-cyliso", "--from", "1", "--to", "2",
        "--poly", "1,0,X^2,0", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["certificate"]["pass"] is True
    assert data["endo"]["vars"] == ["X", "S", "Y", "T"]


def test_danielewski_cyliso_single_coefficient_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["danielewski-cyliso", "--from", "1", "--to", "2", "--poly", "1"])
    assert info.value.code == 2


def test_danielewski_cyliso_zero_constant_is_parse_error(capsys):
    code, _, err = run(
        capsys, "danielewski-cyliso", "--from", "1", "--to", "2", "--poly", "0,0,X^2,0"
    )
    assert code == 2
    assert "constant term" in err


def test_verify_suite_runs_all_checks(capsys):
    code, out, _ = run(capsys, "verify-suite", "--toy")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines)


def test_verify_suite_json(capsys):
    code, out, _ = run(capsys, "verify-suite", "--toy", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert [c["check"] for c in data["checks"]] == [
        "degree-consistency",
        "kernel",
        "al-chain",
        "graded-relations",
        "graded-properties",
    ]


def test_malformed_ring_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"family\": \"bogus\"}")
    code, _, err = run(capsys, "nf", "--ring", str(bad), "X")
    assert code == 2
    assert "error" in err


def test_polynomial_parse_error(capsys):
    code, _, err = run(capsys, "nf", "--toy", "2X")
    assert code == 2
    assert "parse error" in err


def test_missing_ring_source(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nf", "X"])
    assert info.value.code == 2


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_deep_nesting_is_parse_error(capsys):
    deep = "(" * 5000 + "X" + ")" * 5000
    code, _, err = run(capsys, "nf", "--toy", deep)
    assert code == 2
    assert "parse error" in err and "nesting deeper than 100" in err
    code, _, err = run(capsys, "nf", "--toy", "--", "-" * 101 + "X")
    assert code == 2
    assert "nesting deeper than 100" in err
    code, out, _ = run(capsys, "nf", "--toy", "--", "-(" * 50 + "X" + ")" * 50)
    assert code == 0
    assert out.strip() == "X"


@pytest.mark.parametrize("command", ["deg", "verify-suite"])
def test_negative_bound_is_usage_error(capsys, command):
    argv = [command, "--toy", "--bound", "-5"] + (["S"] if command == "deg" else [])
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--bound: must be >= 0, got -5" in capsys.readouterr().err
