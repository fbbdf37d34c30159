"""End-to-end tests for the command line interface.

Everything goes through run() or main() with argv lists; expected
values are frozen strings checked against the structured format.
"""

import argparse
import io
import contextlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import halfsphere.cli as cli
from halfsphere.cli import build_parser, main, run
from halfsphere.verify import golden_cases

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_ok(argv):
    code, text = run(argv)
    assert code == 0, text
    return text


def kv(text):
    """Parse structured output into a flat key -> value dict."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


# ----------------------------------------------------------------------
# golden files

GOLDEN_ARGS = dict(golden_cases())


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_golden_output(name):
    code, text = run(GOLDEN_ARGS[name])
    assert code == 0
    want = (GOLDEN_DIR / f"{name}.txt").read_text()
    got = text if text.endswith("\n") else text + "\n"
    assert got == want


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == set(GOLDEN_ARGS)


def test_structured_output_deterministic():
    runs = [run(GOLDEN_ARGS["pair"]) for _ in range(2)]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# per-command known answers (structured format)


def test_nf_reduces_square():
    text = run_ok(["--n", "2", "--format", "structured", "nf", "v1*v1"])
    d = kv(text)
    assert d["even"] == "-z2*z2~ + 1"
    assert d["odd"] == "0"
    assert d["lift"] == "-v2^2 + 1"


def test_nf_text_mode():
    text = run_ok(["--n", "2", "nf", "v1*v1"])
    assert "canonical form:" in text
    assert "lift: -v2^2 + 1" in text


def test_eq_equal_and_not():
    code, _ = run(["--n", "3", "eq", "v1*v2*v3", "v3*v2*v1"])
    assert code == 0
    code, text = run(["--n", "2", "--format", "structured", "eq", "v1*v2", "v2*v1"])
    assert code == 1
    assert kv(text)["equal"] == "false"


def test_grade_splits_parts():
    text = run_ok(["--n", "2", "--format", "structured", "grade", "v1 + v1*v2"])
    d = kv(text)
    assert d["even"] == "z1*z2~"
    assert d["odd"] == "z1"
    assert d["even_lift"] == "v1*v2"
    assert d["odd_lift"] == "v1"


def test_nu_flips_odd_sign():
    d = kv(run_ok(["--n", "2", "--format", "structured", "nu", "v1"]))
    assert d["odd"] == "-z1"
    assert d["lift"] == "-v1"


def test_gamma_of_generator():
    # gamma(v_2) = sum_k v_k v_2 v_k = v2^3 + v1 v2 v1 at n = 2
    d = kv(run_ok(["--n", "2", "--format", "structured", "gamma", "v2"]))
    assert d["lift"] == "v2^3 + v1*v2*v1"


def test_phi_sends_p_to_pair_of_generators():
    d = kv(run_ok(["--n", "2", "--format", "structured", "phi", "p12"]))
    assert d["result"] == "v1*v2"


def test_phi_inv_of_even_word():
    d = kv(run_ok(["--n", "2", "--format", "structured", "phi-inv", "v1*v2"]))
    assert d["result"] == "z1*z2~"


def test_theta_matrix_at_real_point():
    d = kv(run_ok(["--n", "2", "--format", "structured", "theta", "3/5,4/5", "v1"]))
    assert d["point"] == "3/5+0i,4/5+0i"
    assert d["matrix"] == "[[0, 3/5], [3/5, 0]]"


def test_phirep_value():
    d = kv(run_ok(["--n", "2", "--format", "structured", "phirep", "3/5,4/5", "v1"]))
    assert d["value"] == "3/5"


def test_char_at_regular_point():
    # tr theta(v1^2) = 2 |z_1|^2 = 18/25
    d = kv(run_ok(["--n", "2", "--format", "structured", "char", "3/5,4/5i", "v1*v1"]))
    assert d["value"] == "18/25"


def test_classify_real_point():
    d = kv(run_ok(["--n", "2", "--format", "structured", "classify", "3/5,4/5"]))
    assert d["class"] == "Real"
    assert d["irreducible"] == "false"
    assert d["commutant_dimension"] == "2"
    assert d["decomposition_plus"] == "3/5+0i,4/5+0i"
    assert d["decomposition_minus"] == "-3/5+0i,-4/5+0i"


def test_classify_torus_real_point():
    d = kv(run_ok(["--n", "2", "--format", "structured", "classify", "3/5i,4/5i"]))
    assert d["class"] == "TorusReal"
    assert d["witness"] == "0.0-1.0i"
    assert d["decomposition_plus"] == "3/5+0i,4/5+0i"


def test_classify_regular_point():
    d = kv(run_ok(["--n", "2", "--format", "structured", "classify", "3/5,4/5i"]))
    assert d["class"] == "Regular"
    assert d["irreducible"] == "true"
    assert d["commutant_dimension"] == "1"
    assert "decomposition_plus" not in d


def test_classify_approx_mode():
    d = kv(run_ok(["--n", "2", "--mode", "approx", "--format", "structured",
                   "classify", "0.6,0.8"]))
    assert d["class"] == "Real"


# the one --eps flag must reach every operation on the point
@pytest.mark.parametrize("eps, tag, dim", [([], "Regular", "1"), (["--eps", "1e-3"], "Real", "2")])
def test_classify_follows_eps(eps, tag, dim):
    d = kv(run_ok(["--n", "2", "--mode", "approx", "--format", "structured", *eps,
                   "classify", "0.6,0.8+0.000001i"]))
    assert (d["class"], d["commutant_dimension"]) == (tag, dim)


@pytest.mark.parametrize("eps, code, equivalent", [([], 1, "false"), (["--eps", "1e-3"], 0, "true")])
def test_orbit_follows_eps(eps, code, equivalent):
    got, text = run(["--n", "2", "--mode", "approx", "--format", "structured", *eps,
                     "orbit", "0.6,0.8i", "0.6+0.000001i,0.8i"])
    assert (got, kv(text)["equivalent"]) == (code, equivalent)


def test_orbit_equivalence_codes():
    code, text = run(["--n", "2", "--format", "structured",
                      "orbit", "3/5,4/5", "3/5i,4/5i"])
    assert code == 0 and kv(text)["equivalent"] == "true"
    code, text = run(["--n", "2", "--format", "structured",
                      "orbit", "3/5,4/5", "4/5,3/5"])
    assert code == 1 and kv(text)["equivalent"] == "false"


def test_span_of_commutator():
    d = kv(run_ok(["--n", "2", "--degree", "2", "--format", "structured",
                   "span", "v1*v2 - v2*v1"]))
    assert d["dimension"] == "1"
    assert d["basis_1"] == "-v2*v1 + v1*v2"


def test_member_codes():
    code, text = run(["--n", "2", "--degree", "4", "--format", "structured",
                      "member", "v1*v2 - v2*v1", "v1*v2 - v2*v1"])
    assert code == 0 and kv(text)["member"] == "true"
    code, text = run(["--n", "2", "--degree", "4", "--format", "structured",
                      "member", "v1", "v1*v2 - v2*v1"])
    assert code == 1 and kv(text)["member"] == "false"


def test_graded_codes():
    code, text = run(["--n", "2", "--format", "structured",
                      "graded", "v1*v2 - v2*v1"])
    assert code == 0 and kv(text)["graded"] == "true"
    code, text = run(["--n", "2", "--format", "structured", "graded", "v1 - 1"])
    assert code == 1 and kv(text)["graded"] == "false"


def test_pair_in_approx_mode_classifies_float_points():
    argv = GOLDEN_ARGS["pair"]
    exact = kv(run_ok(argv))
    approx = kv(run_ok(["--mode", "approx"] + argv))
    assert approx["mode"] == "approx"
    for key in ("E_count", "F_count", "non_classical", "F_symmetric"):
        assert approx[key] == exact[key]
    for k in range(1, int(exact["F_count"]) + 1):
        assert "/" in exact[f"F_{k}"]
        assert "/" not in approx[f"F_{k}"] and "." in approx[f"F_{k}"]


def test_pair_verdicts_follow_eps():
    argv = ["--n", "2", "--degree", "4", "--seed", "5", "--format", "structured"]
    gen = ["pair", "v1 - 4/5 - 1/1000000"]
    assert kv(run_ok(argv + gen))["F_count"] == "0"
    assert kv(run_ok(argv + ["--mode", "approx"] + gen))["F_count"] == "0"
    loose = kv(run_ok(argv + ["--mode", "approx", "--eps", "1e-3"] + gen))
    assert (loose["F_count"], loose["F_1"]) == ("2", "0.8+0.0i,0.6+0.0i")


def test_pair_commutator_is_classical_sphere():
    d = kv(run_ok(["--n", "2", "--degree", "4", "--seed", "5",
                   "--format", "structured", "pair", "v1*v2 - v2*v1"]))
    assert d["span_dimension"] == "6"
    assert d["E_count"] == "0"
    assert d["F_count"] == "8"
    assert d["non_classical"] == "false"
    assert d["F_symmetric"] == "true"


def test_vanish_no_points_gives_full_space():
    d = kv(run_ok(["--n", "2", "--degree", "2", "--format", "structured", "vanish"]))
    assert d["dimension"] == "6"
    assert d["basis_6"] == "1"


def test_projcheck_passes():
    d = kv(run_ok(["--n", "4", "--format", "structured", "projcheck"]))
    assert d["passed"] == "true"


def test_verify_single_suite():
    code, text = run(["--n", "3", "--format", "structured", "verify", "relations"])
    assert code == 0
    assert kv(text)["relations"] == "pass"


def test_verify_text_reports_suite_wall_time():
    code, text = run(["--n", "3", "verify", "relations"])
    assert code == 0
    lines = [line for line in text.splitlines() if line.startswith("relations:")]
    assert len(lines) == 1
    assert re.fullmatch(r"relations: PASS \(.+\) \[\d+\.\d\d s\]", lines[0])


def test_verify_structured_output_has_no_timing():
    code, text = run(["--n", "3", "--format", "structured", "verify", "relations"])
    assert code == 0
    assert "relations = pass" in text.splitlines()
    assert " s]" not in text and "seconds" not in text


HELP_ORDER = [
    "nf", "eq", "grade", "nu", "gamma", "phi", "phi-inv", "theta", "phirep", "char",
    "classify", "orbit", "span", "member", "graded", "pair", "vanish", "projcheck",
    "verify",
]


def test_subcommands_follow_the_command_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == HELP_ORDER == list(cli._COMMANDS)


@pytest.mark.parametrize("name", ["nu", "gamma"])
def test_shared_handler_prints_its_own_section(name):
    structured = run_ok(["--n", "2", "--format", "structured", name, "v1*v2"])
    assert f"[{name}]" in structured.splitlines()
    assert run_ok(["--n", "2", name, "v1*v2"]).startswith(f"{name}: ")


# calls that differ in mode, n, command, argument count and output format
BACK_TO_BACK = [
    ["--n", "2", "--mode", "approx", "classify", "0.6,0.8"],
    ["--n", "2", "classify", "3/5,4/5"],
    ["--n", "4", "nf", "v1*v2*v3*v4*v1"],
    ["nf", "v1*v2*v3*v1"],
    ["--n", "2", "--degree", "4", "span", "v1*v2 - v2*v1", "(1/2+i)*v1*v1 - v2"],
    ["verify", "relations"],
    ["--format", "structured", "grade", "v1 + v1*v2"],
    ["grade", "v1 + v1*v2"],
]


def _without_timing(result):
    # verify's text output gives each suite's wall time
    code, text = result
    return code, re.sub(r" \[\d+\.\d+ s\]", "", text)


def test_cached_parser_keeps_no_state_between_runs():
    build_parser.cache_clear()
    cached = [_without_timing(run(argv)) for argv in BACK_TO_BACK]
    assert build_parser.cache_info().misses == 1
    for argv, got in zip(BACK_TO_BACK, cached):
        build_parser.cache_clear()
        assert got == _without_timing(run(argv)), argv


def test_session_header_reflects_flags():
    d = kv(run_ok(["--n", "3", "--degree", "4", "--seed", "7",
                   "--format", "structured", "projcheck"]))
    assert d["n"] == "3"
    assert d["degree"] == "4"
    assert d["seed"] == "7"


# ----------------------------------------------------------------------
# exit codes through main()


def _main_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


# argv -> the exact stderr line; every expression-taking command is covered
PARSE_ERRORS = {
    ("--n", "3", "nf", "v1 +"): "empty term (at position 4)",
    ("--n", "3", "nf", "v4"): "generator index 4 out of range 1..3 (at position 2)",
    ("--n", "2", "nf", "p12"): "expected an expression in the v-generators (at position 0)",
    ("--n", "3", "nf", "v1*p12"): "cannot mix v-generators and p-generators (at position 6)",
    ("--n", "3", "nf", "p12 + v1"): "cannot mix v-generators and p-generators (at position 8)",
    ("--n", "3", "nf", "v1 + + v2"): "empty term (at position 5)",
    ("--n", "3", "nf", ""): "empty term (at position 0)",
    ("--n", "3", "nf", "v1^"): "expected an integer exponent after '^' (at position 3)",
    ("--n", "3", "eq", "v1", "p12"): "expected an expression in the v-generators (at position 0)",
    ("--n", "3", "grade", "v1*v5"): "generator index 5 out of range 1..3 (at position 5)",
    ("--n", "3", "nu", "v1 - ()"): "empty term (at position 6)",
    ("--n", "3", "gamma", "(v1 + p11)"): "cannot mix v-generators and p-generators (at position 9)",
    ("--n", "3", "phi-inv", "p12"): "expected an expression in the v-generators (at position 0)",
    ("--n", "2", "theta", "3/5,4/5", "v1 ++ v2"): "empty term (at position 4)",
    ("--n", "2", "phirep", "3/5,4/5", "p11"):
        "expected an expression in the v-generators (at position 0)",
    ("--n", "2", "char", "3/5,4/5i", "v0"): "generator index 0 out of range 1..2 (at position 2)",
    ("--n", "2", "nf", "3/0*v1"): "zero denominator in '3/0' (at position 0)",
    ("--n", "2", "span", "1/0*v1"): "zero denominator in '1/0' (at position 0)",
    ("--n", "2", "classify", "3/0,1"): "zero denominator in '3/0' (at position 0)",
    ("--n", "2", "--mode", "approx", "classify", "3/0,1"):
        "zero denominator in '3/0' (at position 0)",
    ("--n", "2", "classify", "1" + "0" * 400 + ".0,0"):
        "coordinate out of float range (at position 0)",
    ("--n", "2", "nf", "1" + "0" * 5000 + "*v1"):
        "scalar literal longer than 4300 digits (at position 0)",
    ("--n", "2", "classify", "1" + "0" * 5000 + ".0,0"):
        "scalar literal longer than 4300 digits (at position 0)",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in PARSE_ERRORS])
def test_parse_errors_exit_2(argv):
    code, err = _main_stderr(argv)
    assert code == 2
    assert err == f"parse error: {PARSE_ERRORS[tuple(argv)]}\n"


def test_constant_only_expressions():
    d = kv(run_ok(["--n", "3", "--format", "structured", "nf", "3"]))
    assert (d["even"], d["odd"], d["lift"]) == ("3", "0", "3")
    d = kv(run_ok(["--n", "2", "--format", "structured", "nf", "2*(3/4+1/2i)"]))
    assert (d["even"], d["odd"], d["lift"]) == ("(3/2+i)", "0", "(3/2+i)")
    d = kv(run_ok(["--n", "2", "--format", "structured", "nf", "(v1 + 1)^0 - 1"]))
    assert (d["even"], d["odd"]) == ("0", "0")


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "3", "phi-inv", "v1"],
        ["--n", "0", "projcheck"],
        ["--n", "2", "--degree", "2", "member", "v1*v2*v1", "v1*v2"],
        ["--n", "2", "verify", "bogus"],
        ["--n", "2", "classify", "1/2,1/2"],
        ["--n", "2", "theta", "3/5,4/5,0", "v1"],
        ["--n", "2", "--eps", "-1", "orbit", "0.6,0.8", "0.6,0.8"],
        ["--n", "2", "--eps", "0", "orbit", "0.6,0.8", "0.6,0.8"],
        ["--n", "2", "--eps", "nan", "orbit", "0.6,0.8", "0.6,0.8"],
    ],
)
def test_precondition_errors_exit_3(argv):
    assert _main_stderr(argv)[0] == 3


def test_float_overflow_in_a_coefficient_exits_3():
    argv = ["--n", "2", "--mode", "approx", "theta", "0.6,0.8", "1" + "0" * 400 + "*v1"]
    assert _main_stderr(argv) == (3, "error: value out of float range\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["not-a-command"])
    assert exc.value.code == 2


def test_closed_output_pipe_ends_quietly(monkeypatch, tmp_path):
    import halfsphere.cli as cli

    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "print", closed_pipe, raising=False)
    with open(tmp_path / "stdout", "w") as sink, contextlib.redirect_stdout(sink):
        code = main(["--n", "2", "nf", "v1"])
    assert code == 1


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "halfsphere", "--n", "2", "nf", "v1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lift: v1" in proc.stdout.splitlines()


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines() if line.startswith("halfsphere ")]
    examples = [argv for argv in examples if argv != ["verify", "all"]]
    assert len(examples) == 14
    for argv in examples:
        assert run(argv)[0] in (0, 1), argv


def test_main_prints_output(capsys):
    code = main(["--n", "2", "--format", "structured", "projcheck"])
    assert code == 0
    captured = capsys.readouterr()
    assert "[projcheck]" in captured.out
