"""The traced layers: which package functions get a span, and what each should move.

Each row names one span (``<module>.<function>``) and the functions it wraps.
A traced run reports ``<span>.calls`` and ``<span>.self_ms`` for every row,
plus the counters in ``COUNTERS``.  ``moves`` is the prediction written down
before any optimisation: the end-to-end metric and workload that a change
to this layer should move.  ``steady`` names pairings where it should move
almost nothing.  A row must see at least one call on every workload its
``moves`` name, unless ``reached`` is False: no subcommand calls that
function at this commit, so it is wrapped only so that a later change that
routes work through it shows up.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Row:
    span: str
    targets: tuple  # "module:attribute" or "module:Class.attribute"
    moves: tuple  # (end-to-end metric, workload) pairs
    steady: tuple = ()
    reached: bool = True

    @property
    def workloads(self) -> set:
        return {w for _, w in self.moves} if self.reached else set()


_LINALG_MOVES = (
    ("trial_ms.verify-schur", "large-few"),
    ("trial_ms.verify-power", "large-few"),
    ("wall_s", "large-few"),
)
_LINALG_STEADY = (("wall_s", "small-many"),)
_BUILD_MOVES = (
    ("trial_ms.verify-spectrum", "large-few"),
    ("trial_ms.verify-inverses", "large-few"),
    ("trial_ms.verify-schur", "large-few"),
)
_SPECTRAL_MOVES = (
    ("trial_ms.verify-spectrum", "large-few"),
    ("trial_ms.verify-resolvent", "large-few"),
    ("trial_ms.verify-inverses", "large-few"),
)
_DILATION_MOVES = (
    ("trial_ms.verify-power", "mid-deep"),
    ("trial_ms.verify-polynomial", "mid-deep"),
    ("trial_ms.verify-power", "large-few"),
    ("trial_ms.verify-polynomial", "large-few"),
    ("trial_ms.verify-dilation", "large-few"),
)
_SCHUR_MOVES = (
    ("trial_ms.verify-schur", "large-few"),
    ("trial_ms.verify-schur", "mid-deep"),
)
_OVERHEAD_MOVES = (("trial_ms.*", "small-many"),)


def _linalg(name: str, reached: bool = True) -> Row:
    return Row(
        f"linalg.{name}",
        (f"foguel.linalg:{name}",),
        _LINALG_MOVES,
        _LINALG_STEADY,
        reached,
    )


def _one(module: str, name: str, moves: tuple) -> Row:
    return Row(f"{module}.{name}", (f"foguel.{module}:{name}",), moves)


ROWS = (
    _linalg("operator_norm"),
    _linalg("hermitian_eigvals"),
    _linalg("hermitian_eigs", reached=False),
    _linalg("psd_sqrt", reached=False),
    _linalg("solve_inverse"),
    Row(
        "models.sample",
        tuple(
            f"foguel.models:{name}"
            for name in ("haar_unitary", "ginibre", "random_contraction", "truncated_shift")
        ),
        _OVERHEAD_MOVES,
    ),
    _one("models", "build_foguel", _BUILD_MOVES),
    _one("models", "FoguelOperator.gram", _BUILD_MOVES),
    _one("spectral", "verify_spectral_mapping", _SPECTRAL_MOVES),
    _one("spectral", "resolvent_blocks", _SPECTRAL_MOVES),
    _one("spectral", "foguel_inverse", _SPECTRAL_MOVES),
    _one("spectral", "foguel_gram_inverse", _SPECTRAL_MOVES),
    _one("spectral", "gram_minus_identity_inverse", _SPECTRAL_MOVES),
    _one("dilation", "generalized_foguel", _DILATION_MOVES),
    _one("dilation", "lift_foguel", _DILATION_MOVES),
    _one("dilation", "foguel_power", _DILATION_MOVES),
    _one("dilation", "poly_apply", _DILATION_MOVES),
    _one("dilation", "verify_poly_bound", _DILATION_MOVES),
    _one("dilation", "Polynomial.at_matrix", _DILATION_MOVES),
    _one("schur", "foguel_positivity", _SCHUR_MOVES),
    _one("schur", "neumann_eval", _SCHUR_MOVES),
    _one("schur", "norm_by_bisection", _SCHUR_MOVES),
    # every ExperimentSpec.runner in EXPERIMENTS; wrapped by spans.py
    Row("experiments.runner", (), _OVERHEAD_MOVES),
    _one("experiments", "run_experiment", _OVERHEAD_MOVES),
    _one("experiments", "emit_report", (("wall_s", "small-many"),)),
    _one("cli", "main", (("setup_s", "small-many"), ("wall_s", "small-many"))),
)

#: Spans that feed an exact counter, and how the counter is read.
#: ``linalg.eig_work`` is computed, not measured: the sum of m**3 over the
#: order m of every Hermitian eigenproblem the linalg entry points solve.
EIG_SPANS = ("linalg.operator_norm", "linalg.hermitian_eigvals", "linalg.hermitian_eigs")

#: (metric, unit, better, moves) for each counter.
COUNTERS = (
    ("linalg.eig_work", "computed-m3", "lower", _LINALG_MOVES),
    ("schur.norm_by_bisection.iterations", "count", "lower", _SCHUR_MOVES),
    ("experiments.report_bytes", "B", "lower", (("wall_s", "small-many"),)),
    ("trace.overhead_s", "s", "lower", ()),
)


def per_layer_metrics() -> list:
    """Every per-layer metric as ``{"name", "unit", "better"}``, in output order."""
    out = []
    for row in ROWS:
        out.append({"name": f"{row.span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{row.span}.self_ms", "unit": "ms", "better": "lower"})
    for name, unit, better, _ in COUNTERS:
        out.append({"name": name, "unit": unit, "better": better})
    return out
