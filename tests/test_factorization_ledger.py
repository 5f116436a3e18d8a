"""Factorizations per trial, by kind and order: the ledger of "one factorization per operator".

Each experiment runs one trial at dim 16, seed 11, with ``numpy.linalg``'s
factorizations wrapped so that every call is counted under its kind and
the order of its matrix.  A change that adds or removes a factorization
changes a pinned count here, and names it.  At dim 16 the orders are n = 16,
2n = 32 and 4n = 64; shift-convergence runs at its default shift dims
16, 64 and 256, orders 32, 128 and 512.
"""

import collections

import numpy as np
import pytest

from foguel import ExperimentConfig, linalg, run_experiment

KINDS = ("eigvalsh", "eigh", "svd", "solve", "cholesky", "qr")

LEDGER = {
    "verify-norm": {("qr", 16): 1, ("eigvalsh", 16): 1, ("eigvalsh", 32): 1},
    "verify-spectrum": {("qr", 16): 1, ("eigvalsh", 16): 1, ("eigvalsh", 32): 1},
    "verify-resolvent": {
        ("qr", 16): 1, ("eigvalsh", 16): 2, ("svd", 16): 1, ("solve", 16): 1,
        ("eigvalsh", 32): 1,
    },
    "verify-inverses": {
        ("qr", 16): 1, ("eigvalsh", 16): 1, ("svd", 16): 2, ("solve", 16): 1,
        ("eigvalsh", 32): 1,
    },
    "verify-dilation": {
        ("eigvalsh", 16): 1, ("svd", 16): 2,
        ("eigvalsh", 32): 1, ("cholesky", 32): 1,
        ("eigvalsh", 64): 1,
    },
    "verify-power": {("qr", 16): 1, ("eigvalsh", 16): 1, ("eigvalsh", 32): 1, ("cholesky", 32): 4},
    "verify-polynomial": {("eigvalsh", 16): 2, ("svd", 16): 1, ("eigvalsh", 32): 3},
    "verify-schur": {
        ("qr", 16): 1, ("eigvalsh", 16): 4, ("eigh", 16): 3, ("cholesky", 16): 7,
        ("eigvalsh", 32): 1,
    },
    "shift-convergence": {
        ("eigvalsh", 4): 1, ("eigvalsh", 32): 1, ("eigvalsh", 128): 1, ("eigvalsh", 512): 1,
    },
}


@pytest.fixture
def ledger(monkeypatch):
    """A counter of ``(kind, order)`` over the wrapped ``numpy.linalg`` factorizations."""
    counts = collections.Counter()

    def counting(kind, solver):
        def wrapper(a, *args, **kwargs):
            counts[(kind, np.shape(a)[-1])] += 1
            return solver(a, *args, **kwargs)

        return wrapper

    for kind in KINDS:
        monkeypatch.setattr(np.linalg, kind, counting(kind, getattr(np.linalg, kind)))
    return counts


def _one_trial(experiment: str) -> None:
    assert run_experiment(ExperimentConfig(experiment, dim=16, trials=1, seed=11)).passed


@pytest.mark.parametrize("experiment", sorted(LEDGER))
def test_factorizations_per_trial(ledger, experiment):
    _one_trial(experiment)
    assert dict(ledger) == LEDGER[experiment]


def test_lifted_norm_on_the_lanczos_path_runs_one_cholesky_and_no_eigensolve(ledger, monkeypatch):
    # with the crossover at 32, ||W|| (order 64) comes from the certified
    # Lanczos path: its Ritz problems are small tridiagonal eigh calls
    monkeypatch.setattr(linalg, "LANCZOS_MIN_ORDER", 32)
    _one_trial("verify-dilation")
    assert ledger[("eigvalsh", 64)] == 0
    assert ledger[("cholesky", 64)] == 1
    assert ledger[("eigh", 64)] == 0
