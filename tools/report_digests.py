"""Print the SHA-256 of every report in a fixed sweep of ``foguel`` runs.

Run it from two checkouts and diff the outputs; equal lines mean
byte-identical reports::

    python3 tools/report_digests.py > before.txt    # in the old checkout
    python3 tools/report_digests.py > after.txt     # in the new checkout
    diff before.txt after.txt

The default sweep runs the nine subcommands at dims 3, 8 and 24 in both
formats with seed 7 and 5 trials, each with its own deep-iteration flag
(``--power-max 6 --poly-degree 5 --neumann-order 30 --shift-dims 8,16,32``),
plus ``verify-power --dim 2 --trials 1 --power-max 2000``, which must stay
one ``overflow`` trial, ``verify-power --dim 8 --trials 3 --power-max 32``
at each seed, which carries the block formula for ``R^n`` to ``n = 32``,
``verify-schur --dim 8 --trials 3 --neumann-order 400`` at each seed,
whose order has nine bits for the Neumann binary splitting (order 30 has
five), and each subcommand at dims 3 and 8 with
``--tol 3e-7`` (json-lines), which covers the scaling of every threshold
by ``--tol``.  ``--seed`` replaces the seed list, ``--dims`` the dimension
list (not that of the ``--tol`` runs), and each ``--bench-seed N`` adds
the three benchmark plans of ``perfbench/workloads.py`` at seed ``N``
(json-lines, as the benchmark runs them; the large plan takes several
seconds).

The output opens with ``# <name>: <value>`` lines, the environment key:
numpy version, BLAS and LAPACK name and version, machine, the SIMD
extensions numpy dispatches to on this CPU, and Python minor version.
Each further line reads ``<sha256> <exit code> <argv>``.  The script
imports the package from the ``src`` directory next to it and pins BLAS
to one thread, because the reports are byte-stable only at a fixed thread
count.  ``tests/golden/report_digests.txt`` is the default output;
after a change that moves report bytes on purpose, regenerate it with::

    python3 tools/report_digests.py > tests/golden/report_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy loads; an importer keeps its own environment
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # noqa: E402

from foguel import cli  # noqa: E402
from foguel.experiments import EXPERIMENTS  # noqa: E402

DEEP_FLAGS = {
    "verify-power": ["--power-max", "6"],
    "verify-polynomial": ["--poly-degree", "5"],
    "verify-schur": ["--neumann-order", "30"],
    "shift-convergence": ["--shift-dims", "8,16,32"],
}

#: The sweep of ``tests/golden/report_digests.txt``.
DEFAULT_SEEDS = (7,)
DEFAULT_DIMS = (3, 8, 24)

#: A ``--tol`` away from every subcommand's default base tolerance.
SCALED_TOL = "3e-7"


def sweep(seeds, dims, bench_seeds) -> list:
    """Every argv of the sweep, without ``--out``."""
    runs = []
    for seed in seeds:
        for dim in dims:
            for fmt in ("json-lines", "csv"):
                for name in EXPERIMENTS:
                    runs.append(
                        [name, "--dim", str(dim), "--trials", "5", "--seed", str(seed),
                         "--format", fmt, *DEEP_FLAGS.get(name, [])]
                    )
    runs.append(["verify-power", "--dim", "2", "--trials", "1", "--power-max", "2000"])
    for seed in seeds:
        runs.append(["verify-power", "--dim", "8", "--trials", "3", "--seed", str(seed),
                     "--power-max", "32"])
    for seed in seeds:
        runs.append(["verify-schur", "--dim", "8", "--trials", "3", "--seed", str(seed),
                     "--neumann-order", "400"])
    for seed in seeds:
        for dim in (3, 8):
            for name in EXPERIMENTS:
                runs.append(
                    [name, "--dim", str(dim), "--trials", "5", "--seed", str(seed),
                     "--tol", SCALED_TOL, *DEEP_FLAGS.get(name, [])]
                )
    if bench_seeds:
        import workloads

        for seed in bench_seeds:
            for workload in workloads.WORKLOADS:
                runs += [call["argv"] for call in workloads.invocations(workload, seed)]
    return runs


def environment_key() -> list:
    """The ``# <name>: <value>`` lines of the environment the digests depend on."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    key = {
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas']['version']}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack']['version']}",
        "machine": platform.machine(),
        # the CPU-specific kernels numpy and OpenBLAS pick at run time
        "simd": " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
        "python": "{}.{}".format(*sys.version_info),
    }
    return [f"# {name}: {value}" for name, value in key.items()]


def digest(argv: list, path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    with open(os.devnull, "w") as quiet:
        stderr, sys.stderr = sys.stderr, quiet
        try:
            code = cli.main([*argv, "--out", path])
        finally:
            sys.stderr = stderr
    try:
        with open(path, "rb") as handle:
            sha = hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        sha = "no-report"
    return f"{sha} {code} {' '.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="sweep seed (default 7)")
    parser.add_argument("--dims", default=",".join(map(str, DEFAULT_DIMS)),
                        help="comma-separated sweep dims")
    parser.add_argument("--bench-seed", type=int, action="append", default=[],
                        help="also digest the benchmark plans at this seed")
    args = parser.parse_args(argv)
    dims = [int(d) for d in args.dims.split(",")]
    print("\n".join(environment_key()), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        for run in sweep(args.seed or DEFAULT_SEEDS, dims, args.bench_seed):
            print(digest(run, path), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
