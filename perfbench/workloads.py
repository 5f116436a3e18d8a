"""Workload plans: which ``foguel`` subcommands a pass runs, and with what flags.

A pass is one child process that calls ``foguel.cli.main`` once for each of
the nine subcommands, in the order of ``SUBCOMMANDS``.  Every flag is passed
explicitly so that a change of a CLI default does not silently change a
workload.  The benchmark seed becomes the ``--seed`` of every call, so one
seed gives the same inputs and the same report bytes on every pass.
"""

from __future__ import annotations

SUBCOMMANDS = (
    "verify-norm",
    "verify-spectrum",
    "verify-resolvent",
    "verify-inverses",
    "verify-dilation",
    "verify-power",
    "verify-polynomial",
    "verify-schur",
    "shift-convergence",
)

# dim, deep-iteration flags, shift dims, and trials per subcommand.  Trial
# counts keep each call at 0.1 s or more, so that one call's median is steady.
_PLANS = {
    "small-many": {
        "dim": 8,
        "power_max": 10,
        "poly_degree": 8,
        "neumann_order": 40,
        "shift_dims": "4,8,16,32",
        "trials": {
            "verify-norm": 3000,
            "verify-spectrum": 2000,
            "verify-resolvent": 1200,
            "verify-inverses": 1200,
            "verify-dilation": 1200,
            "verify-power": 300,
            "verify-polynomial": 600,
            "verify-schur": 200,
            "shift-convergence": 900,
        },
    },
    "large-few": {
        "dim": 256,
        "power_max": 10,
        "poly_degree": 8,
        "neumann_order": 40,
        "shift_dims": "128,256,512",
        "trials": {
            "verify-norm": 4,
            "verify-spectrum": 2,
            "verify-resolvent": 2,
            "verify-inverses": 1,
            "verify-dilation": 1,
            "verify-power": 1,
            "verify-polynomial": 1,
            "verify-schur": 1,
            "shift-convergence": 1,
        },
    },
    "mid-deep": {
        "dim": 64,
        "power_max": 32,
        "poly_degree": 32,
        "neumann_order": 400,
        "shift_dims": "16,32,64,128",
        "trials": {
            "verify-norm": 64,
            "verify-spectrum": 32,
            "verify-resolvent": 24,
            "verify-inverses": 16,
            "verify-dilation": 12,
            "verify-power": 4,
            "verify-polynomial": 6,
            "verify-schur": 6,
            "shift-convergence": 20,
        },
    },
}

WORKLOADS = tuple(_PLANS)

# Shrunk plan for the smoke mode: same call paths, tiny sizes.
_SMOKE = {
    "dim": 3,
    "power_max": 2,
    "poly_degree": 2,
    "neumann_order": 5,
    "shift_dims": "4,8",
    "trials": dict.fromkeys(SUBCOMMANDS, 2),
}

_EXTRA = {
    "verify-power": ("--power-max", "power_max"),
    "verify-polynomial": ("--poly-degree", "poly_degree"),
    "verify-schur": ("--neumann-order", "neumann_order"),
    "shift-convergence": ("--shift-dims", "shift_dims"),
}


def invocations(workload: str, seed: int, *, smoke: bool = False) -> list:
    """The pass for ``workload``: a list of ``{"name", "argv", "trials"}``.

    ``argv`` lacks ``--out``; the child adds it.
    """
    plan = _SMOKE if smoke else _PLANS[workload]
    calls = []
    for name in SUBCOMMANDS:
        trials = plan["trials"][name]
        argv = [name, "--dim", str(plan["dim"]), "--trials", str(trials), "--seed", str(seed)]
        if name in _EXTRA:
            flag, key = _EXTRA[name]
            argv += [flag, str(plan[key])]
        calls.append({"name": name, "argv": argv, "trials": trials})
    return calls
