"""The default sweep of ``tools/report_digests.py`` reproduces the committed digests.

Every report of the sweep must stay byte-identical unless a change moves it
on purpose and regenerates ``tests/golden/report_digests.txt``.  The bytes
depend on numpy, BLAS and LAPACK builds and on the machine, so the test
skips, naming the difference, when this environment's key is not the
golden file's.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "report_digests.py"
GOLDEN = ROOT / "tests" / "golden" / "report_digests.txt"

sys.path.insert(0, str(SCRIPT.parent))
import report_digests  # noqa: E402


def test_golden_file_covers_the_default_sweep():
    golden = [line for line in GOLDEN.read_text().splitlines() if not line.startswith("#")]
    defaults = report_digests.DEFAULT_SEEDS, report_digests.DEFAULT_DIMS, []
    argvs = [" ".join(argv) for argv in report_digests.sweep(*defaults)]
    assert [line.split(" ", 2)[2] for line in golden] == argvs


def test_report_digests_match_the_golden_file():
    golden = GOLDEN.read_text().splitlines()
    key = [line for line in golden if line.startswith("#")]
    here = report_digests.environment_key()
    if key != here:
        differences = sorted(set(key) ^ set(here))
        pytest.skip(f"environment key differs from the golden file's: {differences}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    moved = [
        f"line {number}: {want.split(' ', 2)[2]}"
        for number, (want, got) in enumerate(zip(golden, lines), start=1)
        if got != want
    ]
    assert not moved, f"{len(moved)} lines of {GOLDEN.name} changed:\n" + "\n".join(moved)
    assert len(lines) == len(golden)
