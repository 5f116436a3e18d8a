"""Time the two paths of ``foguel.linalg.operator_norm`` at orders 256 to 2048.

    python3 tools/norm_crossover.py               # 3 repeats per order
    python3 tools/norm_crossover.py --repeats 5

Each order m takes the lifted Foguel operator ``W`` of verify-dilation at
dim m/4 (the lift of ``generalized_foguel(random_contraction, ginibre)``,
seed 11), the matrix whose norm is the largest eigensolve of a verifier
trial.  Both paths form ``g = W* W`` made exactly Hermitian; the exact
path then runs ``eigvalsh``, the certified path the gap-certified Lanczos
kernel (and ``eigvalsh`` too when that falls back).  One line per order
gives the median milliseconds of each path and their ratio, the Lanczos
steps, the relative enclosure width, the kernel's verdict, and the worst
extra cost of a fallback: ``LANCZOS_MAX_STEPS`` steps at the measured
cost per step plus one Cholesky of order m, in percent of the exact path.

``linalg.LANCZOS_MIN_ORDER`` is the smallest order at which the certified
path is clearly faster and that worst extra cost stays at or below about
25%; ``linalg.LANCZOS_MAX_STEPS`` leaves headroom over the steps every
order needs.  The script imports the package from the ``src`` directory
next to it and pins BLAS to one thread, since timings are compared only
at a fixed thread count.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # before numpy loads; an importer keeps its own environment
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from foguel import linalg  # noqa: E402
from foguel.dilation import generalized_foguel, lift_foguel  # noqa: E402
from foguel.models import SeededGenerator, ginibre, random_contraction  # noqa: E402

ORDERS = (256, 512, 1024, 2048)


def lifted(order: int) -> np.ndarray:
    gen = SeededGenerator(11)
    dim = order // 4
    return lift_foguel(generalized_foguel(random_contraction(dim, gen), ginibre(dim, gen))).matrix


def hermitian_gram(m: np.ndarray) -> np.ndarray:
    g = linalg.adjoint(m) @ m
    return (g + linalg.adjoint(g)) / 2.0


def exact_path(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_gram(m))[-1])


def certified_path(m: np.ndarray):
    g = hermitian_gram(m)
    started = time.perf_counter()
    top = linalg._lanczos_top_eigenvalue(g)
    lanczos_s = time.perf_counter() - started
    if top.value is None:
        np.linalg.eigvalsh(g)
    return top, lanczos_s


def timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - started, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per path and order")
    args = parser.parse_args(argv)
    print(f"# LANCZOS_MIN_ORDER {linalg.LANCZOS_MIN_ORDER}, "
          f"LANCZOS_MAX_STEPS {linalg.LANCZOS_MAX_STEPS}, numpy {np.__version__}")
    print("order exact_ms certified_ms ratio steps width verdict fallback_extra_pct")
    for order in ORDERS:
        m = lifted(order)
        pd = np.eye(order, dtype=np.complex128) + hermitian_gram(m)
        cholesky_s = statistics.median(
            timed(np.linalg.cholesky, pd)[0] for _ in range(args.repeats)
        )
        exact, certified, lanczos = [], [], []
        for _ in range(args.repeats):  # alternate, so drift hits both paths alike
            exact.append(timed(exact_path, m)[0])
            seconds, (top, lanczos_s) = timed(certified_path, m)
            certified.append(seconds)
            lanczos.append(lanczos_s)
        exact_s, certified_s = statistics.median(exact), statistics.median(certified)
        # the kernel's time less its one Cholesky, spread over its steps
        step_s = max(statistics.median(lanczos) - cholesky_s, 0.0) / top.steps
        extra = linalg.LANCZOS_MAX_STEPS * step_s + cholesky_s
        print(f"{order} {exact_s * 1e3:.0f} {certified_s * 1e3:.0f} "
              f"{certified_s / exact_s:.2f} {top.steps} {top.width:.2e} {top.reason} "
              f"{100.0 * extra / exact_s:.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
