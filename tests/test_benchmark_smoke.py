"""The benchmark's shrunk self-check runs against the current source tree.

``perfbench`` wraps every function a row of ``perfbench/layers.py`` names,
including kernels that no subcommand calls, so renaming or removing one
breaks the benchmark even when every other test passes.  The check runs on
a copy of ``src/``, ``perfbench/`` and ``BENCHMARK.json`` and writes nothing
into the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "smoke: ok" in result.stdout
