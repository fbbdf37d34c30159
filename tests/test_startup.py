"""Start-up cost: what `import halfsphere` loads.

Every CLI answer comes from a fresh process, so the package keeps heavy
standard-library modules out of its import graph.  dataclasses pulls in
inspect (and with it ast and dis) and generates code per decorated class.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cold_import_skips_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "import halfsphere, halfsphere.cli, halfsphere.verify\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
