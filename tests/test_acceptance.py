"""Acceptance gate.

Runs every verification suite at seed 0 and prints one pass/fail line
per criterion, so a verbose run reads as a checklist.  The suites
themselves live in halfsphere.verify and are also reachable through
`halfsphere verify <name>`.
"""

import pytest

import halfsphere.cli as cli
import halfsphere.verify as verify
from halfsphere.algebra import CrossedElem
from halfsphere.projective import ProjectorReport
from halfsphere.verify import golden_cases, run_suite, suite_names

CRITERIA = list(enumerate(suite_names(), start=1))


@pytest.mark.parametrize(
    "index,name", CRITERIA, ids=[f"{i:02d}-{n}" for i, n in CRITERIA]
)
def test_criterion(index, name):
    result = run_suite(name, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:2d} ({name}): {status} - {result.summary}")
    detail = "\n".join(result.details)
    assert result.passed, f"criterion {index} ({name}) failed:\n{detail}"


def test_golden_files_match_fresh_runs():
    """The pinned CLI outputs must stay byte-identical."""
    from pathlib import Path

    from halfsphere.cli import run

    golden_dir = Path(__file__).parent / "golden"
    for name, argv in golden_cases():
        code, text = run(argv)
        assert code == 0
        want = (golden_dir / f"{name}.txt").read_text()
        got = text if text.endswith("\n") else text + "\n"
        assert got == want, f"golden output drifted for {name}"
        print(f"golden file {name}: PASS")


# ----------------------------------------------------------------------
# planted faults: a suite that meets a wrong answer reports FAIL under its
# own name, with its own message and the details gathered so far


def _pi_off_by_one(monkeypatch):
    real = verify.pi
    monkeypatch.setattr(verify, "pi", lambda p: real(p) + CrossedElem.unit(p.n))


def _trace_fails_at_3(monkeypatch):
    real = verify.check_projector_relations

    def check(n):
        r = real(n)
        return ProjectorReport(n, r.adjoint_ok, r.idempotent_ok, False) if n == 3 else r

    monkeypatch.setattr(verify, "check_projector_relations", check)


def _gamma_is_identity(monkeypatch):
    monkeypatch.setattr(CrossedElem, "gamma", lambda self: self)


def _never_graded(monkeypatch):
    monkeypatch.setattr(verify, "is_graded", lambda spec: False)


def _golden_runs_exit_1(monkeypatch):
    real = cli.run
    golden = [argv for _, argv in golden_cases()]
    monkeypatch.setattr(
        cli, "run", lambda argv: (1, real(argv)[1]) if list(argv) in golden else real(argv)
    )


PLANTED = [
    ("relations", _pi_off_by_one, "sum of squares is not 1 at n=2", []),
    (
        "projector_presentation",
        _trace_fails_at_3,
        "projector relations fail at n=3",
        [
            "n=1: adjoint=True idempotent=True trace=True",
            "n=2: adjoint=True idempotent=True trace=True",
            "n=3: adjoint=True idempotent=True trace=False",
        ],
    ),
    ("intertwining", _gamma_is_identity, "v_1 x != gamma(x) v_1 at trial 0", []),
    (
        "graded_bijection",
        _never_graded,
        "trial 0 (n=2, d=4): ideal of homogeneous generators not graded",
        [],
    ),
    ("cli_golden", _golden_runs_exit_1, "nf exited with 1", []),
]


@pytest.mark.parametrize(
    "name,plant,message,details", PLANTED, ids=[case[0] for case in PLANTED]
)
def test_planted_fault_fails_its_suite(monkeypatch, capsys, name, plant, message, details):
    plant(monkeypatch)
    result = run_suite(name, seed=0)
    assert (result.name, result.passed, result.summary) == (name, False, message)
    assert result.details == details
    assert cli.main(["verify", name]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{name}: FAIL ({message}) [")
    assert lines[1:] == [f"    {line}" for line in details]
