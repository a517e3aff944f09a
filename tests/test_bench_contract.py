"""The benchmark's own smoke check, run as a test.

perfbench/layertrace.py wraps names of the program by attribute: the
DescentContext.exclusion_reason and necessary_failures methods, the
ResultCache get/put methods, and the `ell` argument of decide_local, read
by position.  Renaming or deleting one of them breaks the benchmark; this
test makes that a test failure too.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "smoke.py"], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"
