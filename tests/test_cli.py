"""End-to-end tests for the command line interface.

Everything goes through run() or main() with argv lists; expected
values are frozen strings checked against the structured format.
"""

import io
import contextlib
from pathlib import Path

import pytest

from halfsphere.cli import main, run

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

GOLDEN_ARGS = {
    "nf": ["--n", "3", "--format", "structured", "nf", "v2*v1*v1 - v1*v2*v3 + v3"],
    "eq": ["--n", "3", "--format", "structured", "eq", "v1*v2*v3", "v3*v2*v1"],
    "pair": ["--n", "2", "--degree", "4", "--seed", "5", "--format", "structured",
             "pair", "v1*v2 - v2*v1"],
    "projcheck": ["--n", "4", "--format", "structured", "projcheck"],
    "nu": ["--n", "2", "--format", "structured", "nu", "v1 + v1*v2"],
    "gamma": ["--n", "2", "--format", "structured", "gamma", "v1 + v1*v2"],
    "phi": ["--n", "3", "--format", "structured", "phi", "p12*p23 - 1/2*p31 + i*p11"],
    "span": ["--n", "2", "--degree", "4", "--format", "structured",
             "span", "v1*v2 - v2*v1"],
    "vanish": ["--n", "2", "--degree", "3", "--format", "structured",
               "vanish", "--", "3/5,4/5i"],
    "classify": ["--n", "2", "--format", "structured", "classify", "3/5i,4/5i"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_golden_output(name):
    code, text = run(GOLDEN_ARGS[name])
    assert code == 0
    want = (GOLDEN_DIR / f"{name}.txt").read_text()
    got = text if text.endswith("\n") else text + "\n"
    assert got == want


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


def test_session_header_reflects_flags():
    d = kv(run_ok(["--n", "3", "--degree", "4", "--seed", "7",
                   "--format", "structured", "projcheck"]))
    assert d["n"] == "3"
    assert d["degree"] == "4"
    assert d["seed"] == "7"


# ----------------------------------------------------------------------
# exit codes through main()


def _main_quiet(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "3", "nf", "v1 +"],
        ["--n", "3", "nf", "v4"],
        ["--n", "2", "nf", "p12"],
    ],
)
def test_parse_errors_exit_2(argv):
    assert _main_quiet(argv) == 2


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
    assert _main_quiet(argv) == 3


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["not-a-command"])
    assert exc.value.code == 2


def test_main_prints_output(capsys):
    code = main(["--n", "2", "--format", "structured", "projcheck"])
    assert code == 0
    captured = capsys.readouterr()
    assert "[projcheck]" in captured.out
