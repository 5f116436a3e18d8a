"""Seeded, reproducible verification experiments with stable reports.

Each experiment draws independent trials from per-trial substreams
(``stream_id`` = trial index), measures a set of named deviations, and
normalizes them against documented thresholds so that every trial record
carries one ``deviation`` (scaled to the experiment's base tolerance: the
trial passes iff ``deviation <= base``) and one ``slack``.  Reports are
byte-deterministic for a fixed config, platform and BLAS thread count;
expected numeric errors (singular draws, violated preconditions) and
non-finite results become failed trials with a reason code instead of
aborting the batch.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import dilation as dil
from . import models, schur, spectral
from .errors import (
    FoguelError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    Tolerance,
    adjoint,
    norm_unless_below,
    operator_norm,
    require_conditioned,
    require_index,
)

DIM_CEILING = 512

#: Order of shift-convergence's fixed symbol, the smallest shift dim that holds it.
SHIFT_SYMBOL_DIM = 4

#: Errors that turn into failed trials instead of aborting the experiment,
#: with the reason code each one records.
_REASON_CODES = {
    ValidationError: "validation-error",
    SingularMatrixError: "singular-matrix",
    NotPositiveSemidefiniteError: "not-psd",
    OverflowError: "overflow",
    np.linalg.LinAlgError: "linalg-error",
}
_EXPECTED_ERRORS = tuple(_REASON_CODES)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dim: int = 8
    trials: int = 10
    seed: int = 0
    tol: float | None = None
    output_format: str = "json-lines"
    power_max: int = 10
    poly_degree: int = 8
    neumann_order: int = 40
    shift_dims: tuple = (16, 64, 256)
    fixture: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(sorted(EXPERIMENTS))}"
            )
        ints = {
            field: require_index(getattr(self, field), field.replace("_", "-"), minimum)
            for field, minimum in (
                ("dim", 1), ("trials", 1), ("seed", 0),
                ("power_max", 1), ("poly_degree", 0), ("neumann_order", 0),
            )
        }
        if ints["dim"] > DIM_CEILING:
            raise ValidationError(f"dim must be in [1, {DIM_CEILING}], got {ints['dim']}")
        if ints["seed"] >= 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {ints['seed']}")
        base_tol = EXPERIMENTS[self.experiment].base_tol
        tol = self.tol
        if tol is not None:
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
                raise ValidationError(f"tol must be a real number, got {tol!r}")
            tol = float(tol)
            if not np.finfo(float).tiny <= tol / base_tol < math.inf:
                raise ValidationError(
                    f"tol must be positive with a finite, normal ratio to the default "
                    f"{base_tol:g}, got {tol}"
                )
        if self.output_format not in ("json-lines", "csv"):
            raise ValidationError(
                f"output format must be 'json-lines' or 'csv', got {self.output_format!r}"
            )
        dims = tuple(require_index(d, "shift-dims entry", 0) for d in self.shift_dims)
        if not dims or any(not SHIFT_SYMBOL_DIM <= d <= DIM_CEILING for d in dims):
            raise ValidationError(
                f"shift-dims must be nonempty with entries in "
                f"[{SHIFT_SYMBOL_DIM}, {DIM_CEILING}], got {dims}"
            )
        if self.fixture is not None and self.fixture != "golden":
            raise ValidationError(f"unknown fixture {self.fixture!r}; only 'golden' exists")
        if self.fixture is not None and "fixture" not in EXPERIMENTS[self.experiment].flags:
            raise ValidationError(f"--fixture is not accepted by {self.experiment}")
        return replace(self, tol=tol, shift_dims=dims, **ints)

    def base_tolerance(self) -> float:
        return self.tol if self.tol is not None else EXPERIMENTS[self.experiment].base_tol

    def echo(self) -> dict:
        """Every field in declaration order, with the resolved tolerance."""
        fields = asdict(self)
        fields.update(tol=self.base_tolerance(), shift_dims=list(self.shift_dims))
        return {"format" if k == "output_format" else k: v for k, v in fields.items()}


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    seed: int
    trial: int
    deviation: float | None
    slack: float | None
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple
    max_deviation: float | None
    min_slack: float | None
    pass_count: int
    passed: bool
    wall_time: float


class _Checks:
    """One trial's named checks, kept as the running maximum of measured/threshold.

    A runner writes each threshold as it stands at the default tolerance:
    in units of ``tol``, the experiment's default base tolerance
    (``10.0 * checks.tol``), or as a literal.  ``add`` multiplies every
    threshold by ``scale = base / tol`` for the trial's base tolerance
    ``base``, so ``--tol`` scales them all alike.  ``ratio()`` is the
    worst quotient; :func:`run_experiment` turns it into the trial's
    deviation ``base * ratio()``, which passes iff it is at most ``base``.
    """

    def __init__(self, base: float, tol: float):
        self.tol = tol
        self.scale = base / tol
        self.worst = None  # running maximum; a NaN ratio stays the maximum once added

    def add(self, name: str, measured: float, threshold: float) -> None:
        ratio = float(measured) / (float(threshold) * self.scale)
        if self.worst is None or ratio > self.worst or math.isnan(ratio):
            self.worst = ratio

    def add_norm(self, name: str, x, divisor: float, threshold: float) -> None:
        """Add ``operator_norm(x) / divisor``, skipping the eigensolve when it cannot be the worst.

        :func:`~foguel.linalg.norm_unless_below` settles the check without
        one, leaving ``ratio()`` unchanged, when it certifies the ratio at
        or below the worst one so far.  A NaN or inf worst certifies
        nothing, so the exact path runs as before.
        """
        limit = None if self.worst is None else self.worst * float(threshold) * self.scale * divisor
        norm = norm_unless_below(x, limit)
        if norm is not None:
            self.add(name, norm / divisor, threshold)

    def ratio(self) -> float:
        return 0.0 if self.worst is None else self.worst


# --- individual experiments -------------------------------------------------


def _run_verify_norm(cfg: ExperimentConfig, gen, checks: _Checks):
    if cfg.fixture == "golden":
        v = np.eye(1, dtype=np.complex128)
        t = np.eye(1, dtype=np.complex128)
    else:
        v = models.haar_unitary(cfg.dim, gen)
        t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = op.symbol_norm
    dev = abs(operator_norm(op.matrix) - spectral.foguel_norm_closed(t_norm))
    checks.add("norm-identity", dev / (1.0 + t_norm), checks.tol)


def _run_verify_spectrum(cfg: ExperimentConfig, gen, checks: _Checks):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = op.symbol_norm
    report = spectral.verify_spectral_mapping(
        op, Tolerance(atol=checks.tol * (1.0 + t_norm**2))
    )
    pair_dev = 0.0
    for mu in report.symbol_gram_spectrum:
        lam_minus, lam_plus = spectral.inverse_branches(mu)
        pair_dev = max(pair_dev, abs(lam_minus * lam_plus - 1.0))
    checks.add("spectrum-multiset", report.max_deviation / (1.0 + t_norm**2), checks.tol)
    checks.add("branch-product", pair_dev, 1e-12)


def _sample_gap_mu(symbol_eigs: np.ndarray, gen) -> float:
    """Uniform mu outside spec(T T*) with a healthy relative gap."""
    hi = float(symbol_eigs[-1]) * 1.25 + 1.0
    gap = max(spectral.SPECTRAL_GAP, 0.01 * (1.0 + float(symbol_eigs[-1])))
    for _ in range(1000):
        mu = gen.uniform(0.0, hi)
        if np.min(np.abs(symbol_eigs - mu)) >= gap:
            return mu
    raise ValidationError("could not sample a spectral-gap-respecting eigenvalue shift")


def _run_verify_resolvent(cfg: ExperimentConfig, gen, checks: _Checks):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    mu = _sample_gap_mu(op.symbol_gram_eigvals, gen)
    lam_minus, lam_plus = spectral.inverse_branches(mu)
    lam = lam_plus if gen.uniform(0.0, 1.0) < 0.5 else lam_minus
    blocks = spectral.resolvent_blocks(op, lam)
    eq_res = operator_norm(
        adjoint(t) @ blocks.a - (lam - 1.0) * adjoint(v) @ adjoint(blocks.x)
    )
    checks.add("resolvent-residual", blocks.residual, checks.tol)
    checks.add("offdiag-relation", eq_res, checks.tol / 10.0)


def _run_verify_inverses(cfg: ExperimentConfig, gen, checks: _Checks):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    eye = np.eye(2 * cfg.dim)
    t_norm = op.symbol_norm
    s = np.linalg.svd(t, compute_uv=False)
    cond_t = float(s[0] / s[-1])
    residuals = [  # (name, residual, divisor, threshold in units of the base tolerance)
        ("foguel-inverse", op.matrix @ spectral.foguel_inverse(op) - eye, 1.0 + t_norm, 1.0),
        ("gram-inverse", op.gram @ spectral.foguel_gram_inverse(op) - eye,
         (1.0 + t_norm) ** 2, 10.0),
        ("gram-minus-identity", (op.gram - eye) @ spectral.gram_minus_identity_inverse(op) - eye,
         cond_t**2, 10.0),
    ]
    # the exact norm goes first to the likeliest binding residual, so the
    # others can skip theirs; the maximum does not depend on the order
    residuals.sort(key=lambda c: np.linalg.norm(c[1]) / (c[2] * c[3]), reverse=True)
    for name, x, divisor, factor in residuals:
        checks.add_norm(name, x, divisor, factor * checks.tol)


def _run_verify_dilation(cfg: ExperimentConfig, gen, checks: _Checks):
    op = dil.generalized_foguel(
        models.random_contraction(cfg.dim, gen), models.ginibre(cfg.dim, gen)
    )
    lift = dil.lift_foguel(op)
    t_norm = op.symbol_norm
    closed = spectral.foguel_norm_closed(t_norm)
    w_norm = operator_norm(lift.matrix)
    # one certificate of ||R|| <= min(||W||, closed) settles both compression
    # checks at 0.0, what max(0, .) records; otherwise ||R|| is computed
    r_norm = norm_unless_below(op.matrix, min(w_norm, closed))

    # ||D* D - I|| for the dilation D in the isometry slot
    checks.add("dilation-unitarity", lift.isometry_defect, checks.tol)
    checks.add("lifted-norm", abs(w_norm - closed) / (1.0 + t_norm), 10.0 * checks.tol)
    lift_excess = 0.0 if r_norm is None else max(0.0, r_norm - w_norm)
    closed_excess = 0.0 if r_norm is None else max(0.0, r_norm - closed)
    checks.add("compression-vs-lift", lift_excess, checks.tol / 10.0)
    checks.add("compression-vs-closed", closed_excess, 10.0 * checks.tol)


def _run_verify_power(cfg: ExperimentConfig, gen, checks: _Checks):
    op = dil.generalized_foguel(models.haar_unitary(cfg.dim, gen), models.ginibre(cfg.dim, gen))
    t_norm = op.symbol_norm
    r_norm = operator_norm(op.matrix)
    # foguel_power gives the block for n = 1; each later block is one unchecked step from the last
    direct, block = np.eye(2 * cfg.dim, dtype=np.complex128), dil.foguel_power(op, 1)
    for n in range(1, cfg.power_max + 1):
        # the two routes never meet: R^n multiplies op.matrix, the block formula
        # steps its own block, formed from op.v and op.t
        direct = direct @ op.matrix
        if n > 1:
            block = dil._power_step(op, block)
        checks.add_norm(f"power-formula-{n}", block - direct, (1.0 + r_norm) ** n, checks.tol)
        # the excess over the bound is 0.0 wherever a certificate holds
        bound = spectral.foguel_norm_closed(n * t_norm)
        norm = r_norm if n == 1 else norm_unless_below(direct, bound)
        excess = 0.0 if norm is None else max(0.0, norm - bound)
        checks.add(f"power-bound-{n}", excess, 10.0 * checks.tol)


def _random_unit_polynomial(degree: int, gen) -> dil.Polynomial:
    """Random polynomial normalized to sup-norm at most 1 on the disk.

    Deflates by a hair more than the sampled boundary sup so the true sup
    (which dense sampling can underestimate between grid points) still stays
    below 1.
    """
    coeffs = gen.complex_gaussian(1, degree + 1)[0]
    p = dil.Polynomial(coeffs)
    sup = p.boundary_sup()
    if sup == 0.0:
        raise ValidationError("degenerate zero polynomial draw")
    deflate = sup * (1.0 + 1e-5)
    return dil.Polynomial(c / deflate for c in p.coeffs)


def _run_verify_polynomial(cfg: ExperimentConfig, gen, checks: _Checks):
    op = dil.generalized_foguel(
        models.random_contraction(cfg.dim, gen), models.ginibre(cfg.dim, gen)
    )
    p = _random_unit_polynomial(cfg.poly_degree, gen)
    r_norm = operator_norm(op.matrix)

    # one direct evaluation of p at the assembled R, the oracle of both checks
    direct = p.at_matrix(op.matrix)
    block = dil.poly_apply(p, op)
    growth = sum(abs(c) * (1.0 + r_norm) ** j for j, c in enumerate(p.coeffs))
    dev = operator_norm(block - direct) / max(growth, 1.0)
    report = dil.verify_poly_bound(p, op, direct)

    checks.add("poly-bound", max(0.0, -report.slack), checks.tol)
    checks.add("poly-formula", dev, checks.tol / 10.0)


def _run_verify_schur(cfg: ExperimentConfig, gen, checks: _Checks):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = op.symbol_norm
    closed = spectral.foguel_norm_closed(t_norm)

    # reduced-vs-direct verdict agreement, redrawing borderline levels
    agree = None
    for _ in range(100):
        level = gen.uniform(1.05, closed + 1.0)
        cert = schur.foguel_positivity(op, level)
        band = 1e-9 * (1.0 + level**2)
        if min(abs(cert.min_eigenvalue), abs(cert.direct_min_eigenvalue)) <= band:
            continue
        agree = cert.positive == (cert.direct_min_eigenvalue >= -cert.threshold)
        break
    if agree is None:
        raise ValidationError("could not sample a level outside the singular band")
    checks.add("verdict-agreement", 0.0 if agree else 1.0, 0.5)

    # closed-form reduction for unitary V: with V V* = U diag(w) U* and
    # Y = T V* U (op.coupling), T V* (level^2 I - V V*)^{-1} V T* is
    # Y diag(1 / (level^2 - w)) Y*
    level = gen.uniform(1.2, closed + 1.0)
    shifted = level**2 - op.vv_eigs[0]
    require_conditioned(np.abs(shifted), "level^2 I - V V*")
    exact = (op.coupling / shifted) @ adjoint(op.coupling)
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    cf_residual = exact - closed_form

    # truncated series respects the geometric tail bound; for a unitary slot
    # the error saturates the bound exactly, so measure the excess over it
    truncated = schur.neumann_eval(op, level, cfg.neumann_order)
    tail = (
        t_norm**2
        * level ** (-2.0 * (cfg.neumann_order + 2))
        / (1.0 - level**-2)
    )
    trunc_excess = max(0.0, operator_norm(truncated - closed_form) - tail)
    checks.add(
        "neumann-truncation",
        trunc_excess,
        0.1 * tail + 1e-12 * (1.0 + t_norm**2),
    )

    # the Schur-route norm against the top of the Gram spectrum and the
    # closed form; norm_by_bisection certifies its own bracket
    result = schur.norm_by_bisection(op, Tolerance(atol=1e-7))
    gram_norm = math.sqrt(op.gram_eigvals[-1])
    checks.add("bisection-vs-norm", abs(result.value - gram_norm), 1e-10)
    checks.add("bisection-vs-closed", abs(result.value - closed), 1e-10)
    # added last, so its eigensolve runs only if it can be the worst ratio
    checks.add_norm("neumann-closed-form", cf_residual, max(t_norm**2, 1e-30), 1e-10)


def _run_shift_convergence(cfg: ExperimentConfig, gen, checks: _Checks):
    t_small = models.ginibre(SHIFT_SYMBOL_DIM, gen)
    t_norm = operator_norm(t_small)
    closed = spectral.foguel_norm_closed(t_norm)
    dims = sorted(cfg.shift_dims)
    norms = []
    for big in dims:
        op = dil.generalized_foguel(
            models.truncated_shift(big), models.embed_corner(t_small, big)
        )
        norms.append(operator_norm(op.matrix))

    for i in range(len(norms) - 1):
        checks.add(
            f"monotone-{dims[i]}-{dims[i + 1]}",
            max(0.0, norms[i] - norms[i + 1]),
            checks.tol,
        )
    for big, value in zip(dims, norms):
        checks.add(f"bound-{big}", max(0.0, value - closed), 100.0 * checks.tol)
    # slack reports the convergence gap at the largest dimension; the
    # truncation rate itself is informational, never asserted
    return closed - norms[-1]


@dataclass(frozen=True)
class ExperimentSpec:
    """One subcommand: its runner, base tolerance, help line and own flags.

    ``runner(cfg, gen, checks)`` adds one trial's named checks to a
    :class:`_Checks` and returns None, or a slack of its own in place of
    the default ``base - deviation``.

    ``flags`` names the :class:`ExperimentConfig` fields the runner reads
    beyond the ones every experiment takes; the CLI and the config-file
    check accept exactly those for this experiment.
    """

    runner: object
    base_tol: float
    description: str
    flags: tuple = ()


EXPERIMENTS = {
    "verify-norm": ExperimentSpec(
        _run_verify_norm,
        1e-8,
        "operator norm equals the closed-form Foguel norm",
        ("fixture",),
    ),
    "verify-spectrum": ExperimentSpec(
        _run_verify_spectrum, 1e-8, "Gram spectrum matches the predicted multiset"
    ),
    "verify-resolvent": ExperimentSpec(
        _run_verify_resolvent, 1e-8, "explicit resolvent blocks invert Gram - lam I"
    ),
    "verify-inverses": ExperimentSpec(
        _run_verify_inverses, 1e-10, "block inverses of R and of Gram - I"
    ),
    "verify-dilation": ExperimentSpec(
        _run_verify_dilation, 1e-9, "unitary dilation and the compression norm bound"
    ),
    "verify-power": ExperimentSpec(
        _run_verify_power,
        1e-9,
        "block power formula and the power norm estimate",
        ("power_max",),
    ),
    "verify-polynomial": ExperimentSpec(
        _run_verify_polynomial,
        1e-8,
        "polynomial calculus and its norm bound",
        ("poly_degree",),
    ),
    "verify-schur": ExperimentSpec(
        _run_verify_schur,
        1e-6,
        "Schur reduction, Neumann series and norm bisection",
        ("neumann_order",),
    ),
    "shift-convergence": ExperimentSpec(
        _run_shift_convergence,
        1e-12,
        "truncated-shift norms grow monotonically to the bound",
        ("shift_dims",),
    ),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all trials of one experiment and aggregate the records."""
    config = config.validate()
    spec = EXPERIMENTS[config.experiment]
    base = config.base_tolerance()
    started = time.perf_counter()

    records = []
    for trial in range(config.trials):
        gen = models.SeededGenerator(config.seed, trial)
        checks = _Checks(base, spec.base_tol)
        deviation, slack, passed, reason = None, None, False, ""
        try:
            slack = spec.runner(config, gen, checks)
        except _EXPECTED_ERRORS as exc:
            reason = _REASON_CODES.get(type(exc), "numeric-error")
        else:
            deviation = float(base * checks.ratio())
            slack = base - deviation if slack is None else slack
            passed = deviation <= base
            if not (math.isfinite(deviation) and math.isfinite(slack)):
                deviation, slack, passed, reason = None, None, False, "non-finite"
        records.append(
            TrialRecord(config.experiment, config.seed, trial, deviation, slack, passed, reason)
        )

    deviations = [r.deviation for r in records if r.deviation is not None]
    slacks = [r.slack for r in records if r.slack is not None]
    pass_count = sum(r.passed for r in records)
    return ExperimentReport(
        config=config,
        records=tuple(records),
        max_deviation=max(deviations) if deviations else None,
        min_slack=min(slacks) if slacks else None,
        pass_count=pass_count,
        passed=pass_count == len(records),
        wall_time=time.perf_counter() - started,
    )


# --- serialization ----------------------------------------------------------


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"cannot serialize non-finite value {value}")
    return value


def _record_dict(record: TrialRecord) -> dict:
    return {
        "experiment": record.experiment,
        "seed": record.seed,
        "trial": record.trial,
        "deviation": _json_value(record.deviation),
        "slack": _json_value(record.slack),
        "pass": record.passed,
        "reason": record.reason,
    }


def emit_report(report: ExperimentReport, output_format: str | None = None) -> bytes:
    """Serialize a report to bytes; identical configs yield identical bytes.

    Wall time is deliberately excluded from the emitted stream so reruns are
    byte-identical; it stays available on the report object.
    """
    fmt = output_format or report.config.output_format
    if fmt == "json-lines":
        lines = [
            json.dumps(_record_dict(r), separators=(", ", ": "))
            for r in report.records
        ]
        aggregate = {
            "experiment": report.config.experiment,
            "seed": report.config.seed,
            "trial": "aggregate",
            "deviation": _json_value(report.max_deviation),
            "slack": _json_value(report.min_slack),
            "pass": report.passed,
            "reason": "",
            "pass_count": report.pass_count,
            "trials": report.config.trials,
            "config": report.config.echo(),
        }
        lines.append(json.dumps(aggregate, separators=(", ", ": ")))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "csv":
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)

        rows = ["experiment,seed,trial,deviation,slack,pass,reason"]
        for r in report.records:  # TrialRecord's fields are in header order
            rows.append(",".join(cell(v) for v in astuple(r)))
        return ("\n".join(rows) + "\n").encode("utf-8")
    raise ValidationError(f"unknown output format {fmt!r}")


def write_report(report: ExperimentReport, path: str | None = None) -> bytes:
    """Emit the report to ``path`` (or return bytes only when path is None)."""
    payload = emit_report(report)
    if path is not None:
        try:
            with open(path, "wb") as handle:
                handle.write(payload)
        except OSError as exc:
            raise FoguelError(f"could not write report to {path!r}: {exc}") from exc
    return payload
