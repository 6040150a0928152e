"""End-to-end coverage of the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from lndfilt import cli
from lndfilt.cylinders import DanielewskiStep, FullStep
from lndfilt.cli import MAX_CHAIN_STEPS, MAX_DERIVATION_APPLICATIONS, MAX_FILTRATION_INDEX, MAX_SUITE_BOUND, main
from lndfilt.derivations import Derivation
from lndfilt.rings import QuotElem, toy_ring
from util import OUTSIDE_AUTOMORPHISM_FAMILY


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


def test_nf_prints_integers_of_any_size(capsys):
    # 99^3000 has 5,987 digits, past the interpreter's 4,300-digit limit on str(int)
    with localcontext() as ctx:
        ctx.prec = 6000
        want = str(Decimal(99) ** 3000)
    code, out, _ = run(capsys, "nf", "--toy", "99^3000")
    assert code == 0
    assert out.strip() == want
    code, out, _ = run(capsys, "nf", "--toy", "--json", "99^3000")
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"] == want
    assert data["terms"] == [{"x": 0, "s": 0, "y": 0, "z": 0, "c": want}]
    code, out, _ = run(capsys, "nf", "--toy", "--json", "--", "-(1/2)^10000*99^3000*X")
    assert code == 0
    assert json.loads(out)["terms"][0]["c"] == f"-{want}/{2**10000}"


def test_nf_json_reads_back_at_any_size(capsys):
    toy = toy_ring()
    for text in ("99^3000", "-(1/2)^10000*99^3000*X + S"):
        code, out, _ = run(capsys, "nf", "--toy", "--json", "--", text)
        assert code == 0
        assert QuotElem.from_json_list(toy, json.loads(out)["terms"]) == toy.element(text)


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


def test_filtration_index_is_capped(capsys):
    code, out, _ = run(capsys, "filtration", "--toy", str(MAX_FILTRATION_INDEX))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == MAX_FILTRATION_INDEX + 1
    assert lines[-1] == f"degree {MAX_FILTRATION_INDEX}: z^{MAX_FILTRATION_INDEX // 4}"
    with pytest.raises(SystemExit) as info:
        main(["filtration", "--toy", str(MAX_FILTRATION_INDEX + 1)])
    assert info.value.code == 2
    assert f"between 0 and {MAX_FILTRATION_INDEX}" in capsys.readouterr().err


def test_derivation_applications_are_capped(capsys, monkeypatch):
    cap = MAX_DERIVATION_APPLICATIONS
    assert run(capsys, "deg", "--toy", "Z^200")[1].strip() == "800"
    # x weighs 0, so the default budget of 20,005 is cut to the cap, not refused
    assert run(capsys, "deg", "--toy", "X^5000*S")[1].strip() == "1"
    assert run(capsys, "deg", "--toy", "--bound", str(cap), "S")[1].strip() == "1"

    def no_iteration(self, *args):
        raise AssertionError("D was applied")

    # every application of D, from apply, iterate or degree, runs in _orbit
    monkeypatch.setattr(Derivation, "_orbit", no_iteration)
    for argv, message in [
        (["deg", "--toy", "Z^2000"], f"degree 8000; its iteration would need more than {cap}"),
        (["deg", "--toy", "Z^250"], "closed-form degree 1000"),
        (["deg", "--toy", "--bound", str(cap + 1), "S"], f"--bound must be at most {cap}"),
        (["derive", "--toy", "Z", "--times", str(cap + 1)], f"--times must be between 0 and {cap}"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("data,message", OUTSIDE_AUTOMORPHISM_FAMILY, ids=["cylinder", "danielewski", "Q", "f_d-1"])
def test_auto_commands_refuse_a_ring_outside_the_family(capsys, tmp_path, data, message):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(data))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "1", "mu": "1"}))
    for command in ("auto-build", "auto-verify"):
        assert run(capsys, command, "--ring", str(ring), "--params", str(params)) == (2, "", f"error: {message}\n")


def test_auto_verify_with_non_strict_params_is_usage_error(capsys, tmp_path, ring_file):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "-1", "mu": "1", "a": 5}))
    code, out, err = run(capsys, "auto-verify", "--ring", ring_file, "--params", str(params))
    assert code == 2
    assert out == ""
    assert "parameter 'a' is 5" in err


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


OUT_COMMANDS = {
    "cyliso": ["cyliso", "-n", "1", "--from", "1", "--to", "2"],
    "danielewski-cyliso": ["danielewski-cyliso", "--from", "1", "--to", "2", "--poly", "1,0,X^2,0"],
    "auto-build": ["auto-build", "--ring", "{ring}", "--params", "{params}"],
}


@pytest.fixture
def no_work(monkeypatch):
    """Every step solve and automorphism build, recorded; a refused --out makes none."""
    calls = []
    for owner, name in ((FullStep, "solve"), (DanielewskiStep, "solve")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda step, original=original: calls.append(step) or original(step))
    original_build = cli.build_auto
    monkeypatch.setattr(cli, "build_auto", lambda *args: calls.append(args) or original_build(*args))
    return calls


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_out_is_refused_before_any_work(capsys, tmp_path, ring_file, no_work, command, case):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "-1", "mu": "1", "a": "3*X^2"}))
    out = tmp_path / "missing" / "x.json" if case == "missing-directory" else tmp_path
    argv = [arg.format(ring=ring_file, params=params) for arg in OUT_COMMANDS[command]]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    if case == "directory":
        assert err == f"error: cannot write output file: '{out}' is a directory\n"
    else:
        assert err == f"error: cannot write output file: '{out.parent}' is not a directory\n"
    assert no_work == []
    assert not (tmp_path / "missing").exists()


def test_write_error_exits_2(capsys, tmp_path, monkeypatch):
    def full_disk(path, *args, **kwargs):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "chain.json"
    code, stdout, err = run(capsys, "cyliso", "-n", "1", "--from", "1", "--to", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write output file: [Errno 28] No space left on device: '{out}'\n"


def test_unwritable_out_has_no_traceback(tmp_path):
    # the whole program, as a user runs it: one error line and exit 2, not a crash
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = tmp_path / "nonexistent" / "x.json"
    done = subprocess.run(
        [sys.executable, "-m", "lndfilt.cli", "cyliso", "-n", "1", "--from", "1", "--to", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: cannot write output file: '{out.parent}' is not a directory\n"
    assert "Traceback" not in done.stderr


def test_auto_build_out_file_holds_the_stdout_bytes(capsys, tmp_path, ring_file):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"lambda": "-1", "mu": "1", "a": "3*X^2"}))
    code, printed, _ = run(capsys, "auto-build", "--ring", ring_file, "--params", str(params))
    assert code == 0
    out = tmp_path / "auto.json"
    code, stdout, _ = run(capsys, "auto-build", "--ring", ring_file, "--params", str(params), "--out", str(out))
    assert (code, stdout) == (0, "")
    assert out.read_text(encoding="utf-8") == printed


def test_main_builds_its_parser_once(capsys, monkeypatch):
    builds = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
    cli._parser.cache_clear()
    try:
        first = run(capsys, "nf", "--toy", "Y^2*S")
        second = run(capsys, "nf", "--toy", "Y^2*S")
        assert first == second == (0, "X^2*Y + X*S*Z\n", "")
        # a usage error after a successful call still exits 2
        with pytest.raises(SystemExit) as info:
            main(["deg", "--toy", "--bound", "-1", "Y"])
        assert info.value.code == 2
        assert "argument --bound: must be >= 0, got -1" in capsys.readouterr().err
        assert run(capsys, "deg", "--toy", "Y") == (0, "2\n", "")
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


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


def test_ring_file_with_float_coefficient(capsys, tmp_path):
    bad = tmp_path / "float.json"
    bad.write_text('{"family": "full", "n": 1, "e": 1, "P": [0.5, 0], "Q": ["0", "0"]}')
    code, _, err = run(capsys, "nf", "--ring", str(bad), "X")
    assert code == 2
    assert "P[0] is 0.5" in err and '"1/2"' in err
    good = tmp_path / "ints.json"
    good.write_text('{"family": "full", "n": 1, "e": 1, "P": [0, 0], "Q": ["0", "0"]}')
    code, out, _ = run(capsys, "nf", "--ring", str(good), "S^2")
    assert (code, out.strip()) == (0, "X*Y")


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


def test_huge_exponent_is_parse_error(capsys):
    code, _, err = run(capsys, "nf", "--toy", "S^100000")
    assert code == 2
    assert "parse error: exponent larger than 10000 (at position 2)" in err
    code, out, _ = run(capsys, "nf", "--toy", "X^10000")
    assert code == 0
    assert out.strip() == "X^10000"


@pytest.mark.parametrize("text, at", [("9" * 5000, 0), ("1/" + "9" * 5000, 2)])
def test_huge_literal_is_parse_error(capsys, text, at):
    code, out, err = run(capsys, "nf", "--toy", text)
    assert code == 2
    assert out == ""
    assert f"parse error: integer literal longer than 1000 digits (at position {at})" in err


@pytest.mark.parametrize("command", ["deg", "verify-suite"])
def test_negative_bound_is_usage_error(capsys, command):
    argv = [command, "--toy", "--bound", "-5"] + (["S"] if command == "deg" else [])
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--bound: must be >= 0, got -5" in capsys.readouterr().err


def test_verify_suite_bound_below_al_chain_minimum_is_usage_error(capsys):
    # z enters the toy ring's filtration at m*d = 4, so a window of 3 would
    # miss it and fail a correct ring; al-chain refuses it instead
    for bound in ("3", "4", "0"):
        code, out, err = run(capsys, "verify-suite", "--toy", "--bound", bound)
        assert code == 2
        assert out == ""
        assert f"al-chain needs a bound of at least 5, one past the degree where z enters, got {bound}" in err
    code, out, _ = run(capsys, "verify-suite", "--toy", "--bound", "5")
    assert code == 0
    assert all(line.endswith("pass") for line in out.splitlines())


def test_verify_suite_hands_every_check_the_same_bound(capsys, monkeypatch):
    import lndfilt.cli as cli
    from lndfilt.checks import CheckReport

    seen = {}

    def recorder(name, key):
        def check(ring, **kwargs):
            seen[name] = kwargs[key]
            return CheckReport(check=name, ring=ring.fingerprint(), bound=0)

        return check

    checks = {
        "degree_consistency": ("degree_bound", 10),
        "kernel_check": ("degree_bound", 8),
        "al_chain_check": ("bound", None),
        "graded_relations_check": ("bound", None),
        "graded_property_check": ("degree_bound", 8),
    }
    for name, (key, _) in checks.items():
        monkeypatch.setattr(cli, name, recorder(name, key))
    for bound in ("0", "7", str(MAX_SUITE_BOUND), None):
        seen.clear()
        argv = ["verify-suite", "--toy"] + (["--bound", bound] if bound else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # the report order is fixed, whatever order the checks run in
        assert [line.split(":")[0] for line in out.splitlines()] == list(checks)
        assert seen == {name: default if bound is None else int(bound) for name, (_, default) in checks.items()}


def test_verify_suite_bound_is_capped(capsys, monkeypatch):
    import lndfilt.cli as cli

    def refused(*args, **kwargs):
        raise AssertionError("a ring or check was built past the cap")

    names = ["degree_consistency", "kernel_check", "al_chain_check", "graded_relations_check", "graded_property_check"]
    for name in ["toy_ring", *names]:
        monkeypatch.setattr(cli, name, refused)
    with pytest.raises(SystemExit) as info:
        main(["verify-suite", "--toy", "--bound", str(MAX_SUITE_BOUND + 1)])
    assert info.value.code == 2
    assert f"--bound must be at most {MAX_SUITE_BOUND}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("compose_chain", ["cyliso", "-n", "1"]),
        ("compose_danielewski_chain", ["danielewski-cyliso", "--poly", "1,0,X^2,0"]),
    ],
)
def test_chain_length_is_capped(capsys, monkeypatch, name, argv):
    import lndfilt.cli as cli

    class Reached(Exception):
        pass

    calls = []

    def stub(*args):
        calls.append(args)
        raise Reached

    monkeypatch.setattr(cli, name, stub)
    with pytest.raises(Reached):
        main(argv + ["--from", "2", "--to", str(2 + MAX_CHAIN_STEPS)])
    assert len(calls) == 1
    with pytest.raises(SystemExit) as info:
        main(argv + ["--from", "1", "--to", str(2 + MAX_CHAIN_STEPS)])
    assert info.value.code == 2
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert f"a chain has at most {MAX_CHAIN_STEPS} steps, got {MAX_CHAIN_STEPS + 1}" in err
