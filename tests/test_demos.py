"""The demo scripts print what tests/demo_output/<demo>.txt pins, byte for byte.

Each demo runs in its own interpreter, as a reader would run it, with the
package imported from this checkout's src directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED_DIR = Path(__file__).parent / "demo_output"


def test_every_demo_has_an_expected_output():
    assert {p.stem for p in DEMOS} == {p.stem for p in EXPECTED_DIR.glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED_DIR / f"{demo.stem}.txt").read_text()
