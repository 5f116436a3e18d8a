"""Seeded, reproducible verification experiments with stable reports.

Each experiment draws independent trials from per-trial substreams
(``stream_id`` = trial index), measures a set of named deviations, and
normalizes them against documented thresholds so that every trial record
carries one ``deviation`` (scaled to the experiment's base tolerance: the
trial passes iff ``deviation <= base``) and one ``slack``.  Reports are
byte-deterministic for a fixed config, platform and BLAS thread count;
expected numeric errors (singular draws, violated preconditions) become
failed trials with a reason code instead of aborting the batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import dilation as dil
from . import models, schur, spectral
from .errors import (
    BoundViolationError,
    FoguelError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import Tolerance, adjoint, norm_certainly_below, operator_norm, solve_inverse

DIM_CEILING = 512

#: Errors that turn into failed trials instead of aborting the experiment,
#: with the reason code each one records.
_REASON_CODES = {
    ValidationError: "validation-error",
    SingularMatrixError: "singular-matrix",
    NotPositiveSemidefiniteError: "not-psd",
    BoundViolationError: "bound-violation",
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
        if not 1 <= self.dim <= DIM_CEILING:
            raise ValidationError(f"dim must be in [1, {DIM_CEILING}], got {self.dim}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.tol is not None and not self.tol > 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.output_format not in ("json-lines", "csv"):
            raise ValidationError(
                f"output format must be 'json-lines' or 'csv', got {self.output_format!r}"
            )
        if self.power_max < 1:
            raise ValidationError(f"power-max must be >= 1, got {self.power_max}")
        if self.poly_degree < 0:
            raise ValidationError(f"poly-degree must be >= 0, got {self.poly_degree}")
        if self.neumann_order < 0:
            raise ValidationError(f"neumann-order must be >= 0, got {self.neumann_order}")
        dims = tuple(int(d) for d in self.shift_dims)
        if not dims or any(not 1 <= d <= DIM_CEILING for d in dims):
            raise ValidationError(
                f"shift-dims must be nonempty with entries in [1, {DIM_CEILING}], got {dims}"
            )
        if self.fixture is not None and self.fixture != "golden":
            raise ValidationError(f"unknown fixture {self.fixture!r}; only 'golden' exists")
        if self.fixture is not None and "fixture" not in EXPERIMENTS[self.experiment].flags:
            raise ValidationError(f"--fixture is not accepted by {self.experiment}")
        return replace(self, shift_dims=dims, seed=int(self.seed))

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
    """Collect (measured, threshold) pairs; reduce to one scaled deviation.

    ``ratio()`` is the worst measured/threshold quotient; deviation is that
    ratio rescaled to the experiment's base tolerance so a trial passes iff
    its deviation stays at or below the base.
    """

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.worst = None  # running maximum; a NaN ratio stays the maximum once added

    def add(self, name: str, measured: float, threshold: float) -> None:
        ratio = float(measured) / (float(threshold) * self.scale)
        if self.worst is None or ratio > self.worst or math.isnan(ratio):
            self.worst = ratio

    def add_norm(self, name: str, x, divisor: float, threshold: float) -> None:
        """Add ``operator_norm(x) / divisor``, skipping the eigensolve when it cannot be the worst.

        The check is settled without one, and ``ratio()`` is unchanged, when
        ``2 ||x||_F`` (which bounds the computed ``||x||_2`` with room for
        rounding; floored at 1e-150, below which the sum of squares may
        underflow) or the Cholesky certificate puts its ratio at or below
        the worst one so far.  NaN or inf falls through to the exact path,
        which raises as before.
        """
        if not x.any():  # the zero matrix, whose operator norm is exactly 0
            return self.add(name, 0.0, threshold)
        if self.worst is not None and self.worst < math.inf:
            limit = self.worst * float(threshold) * self.scale
            if 2.0 * max(float(np.linalg.norm(x)), 1e-150) / divisor <= limit:
                return
            if norm_certainly_below(x, limit * divisor):
                return
        self.add(name, operator_norm(x) / divisor, threshold)

    def ratio(self) -> float:
        return 0.0 if self.worst is None else self.worst


def _outcome(checks: _Checks, base: float, slack: float | None = None):
    deviation = float(base * checks.ratio())
    if slack is None:
        slack = base - deviation
    return deviation, float(slack), deviation <= base


# --- individual experiments -------------------------------------------------


def _run_verify_norm(cfg: ExperimentConfig, gen, base: float, scale: float):
    if cfg.fixture == "golden":
        v = np.eye(1, dtype=np.complex128)
        t = np.eye(1, dtype=np.complex128)
    else:
        v = models.haar_unitary(cfg.dim, gen)
        t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = operator_norm(t)
    dev = abs(operator_norm(op.matrix) - spectral.foguel_norm_closed(t_norm))
    checks = _Checks(scale)
    checks.add("norm-identity", dev / (1.0 + t_norm), base / scale)
    return _outcome(checks, base)


def _run_verify_spectrum(cfg: ExperimentConfig, gen, base: float, scale: float):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = operator_norm(t)
    report = spectral.verify_spectral_mapping(
        op, Tolerance(atol=base * (1.0 + t_norm**2))
    )
    pair_dev = 0.0
    for mu in report.symbol_gram_spectrum:
        lam_minus, lam_plus = spectral.inverse_branches(mu)
        pair_dev = max(pair_dev, abs(lam_minus * lam_plus - 1.0))
    checks = _Checks(scale)
    checks.add("spectrum-multiset", report.max_deviation / (1.0 + t_norm**2), base / scale)
    checks.add("branch-product", pair_dev, 1e-12)
    return _outcome(checks, base)


def _sample_gap_mu(symbol_eigs: np.ndarray, gen, max_draws: int = 1000) -> float:
    """Uniform mu outside spec(T T*) with a healthy relative gap."""
    hi = float(symbol_eigs[-1]) * 1.25 + 1.0
    gap = max(spectral.SPECTRAL_GAP, 0.01 * (1.0 + float(symbol_eigs[-1])))
    for _ in range(max_draws):
        mu = gen.uniform(0.0, hi)
        if np.min(np.abs(symbol_eigs - mu)) >= gap:
            return mu
    raise ValidationError("could not sample a spectral-gap-respecting eigenvalue shift")


def _run_verify_resolvent(cfg: ExperimentConfig, gen, base: float, scale: float):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    symbol_eigs = np.linalg.eigvalsh(t @ adjoint(t))
    mu = _sample_gap_mu(np.clip(symbol_eigs, 0.0, None), gen)
    lam_minus, lam_plus = spectral.inverse_branches(mu)
    lam = lam_plus if gen.uniform(0.0, 1.0) < 0.5 else lam_minus
    blocks = spectral.resolvent_blocks(op, lam)
    eq_res = operator_norm(
        adjoint(t) @ blocks.a - (lam - 1.0) * adjoint(v) @ adjoint(blocks.x)
    )
    checks = _Checks(scale)
    checks.add("resolvent-residual", blocks.residual, base / scale)
    checks.add("offdiag-relation", eq_res, (base / scale) / 10.0)
    return _outcome(checks, base)


def _run_verify_inverses(cfg: ExperimentConfig, gen, base: float, scale: float):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    eye = np.eye(2 * cfg.dim)
    t_norm = operator_norm(t)
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
    checks = _Checks(scale)
    for name, x, divisor, factor in residuals:
        checks.add_norm(name, x, divisor, factor * base / scale)
    return _outcome(checks, base)


def _run_verify_dilation(cfg: ExperimentConfig, gen, base: float, scale: float):
    a = models.random_contraction(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    lift = dil.lift_foguel(a, t)
    # build_foguel stored ||D* D - I|| for the dilation D in the isometry slot
    unitarity = lift.operator.isometry_defect
    t_norm = operator_norm(t)
    closed = spectral.foguel_norm_closed(t_norm)
    w_norm = operator_norm(lift.lifted)
    r_norm = operator_norm(dil.generalized_foguel(a, t))

    checks = _Checks(scale)
    checks.add("dilation-unitarity", unitarity, base / scale)
    checks.add("lifted-norm", abs(w_norm - closed) / (1.0 + t_norm), 10.0 * base / scale)
    checks.add("compression-vs-lift", max(0.0, r_norm - w_norm), base / (10.0 * scale))
    checks.add("compression-vs-closed", max(0.0, r_norm - closed), 10.0 * base / scale)
    return _outcome(checks, base)


def _run_verify_power(cfg: ExperimentConfig, gen, base: float, scale: float):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    r = dil.generalized_foguel(v, t)
    t_norm = operator_norm(t)
    r_norm = operator_norm(r)
    checks = _Checks(scale)
    direct = np.eye(2 * cfg.dim, dtype=np.complex128)
    for n in range(1, cfg.power_max + 1):
        direct = direct @ r
        block = dil.foguel_power(v, t, n, direct)
        checks.add_norm(f"power-formula-{n}", block - direct, (1.0 + r_norm) ** n, base / scale)
        # the excess over the bound is 0.0 wherever the certificate holds
        bound = spectral.foguel_norm_closed(n * t_norm)
        if n == 1:
            excess = max(0.0, r_norm - bound)
        elif norm_certainly_below(direct, bound):
            excess = 0.0
        else:
            excess = max(0.0, operator_norm(direct) - bound)
        checks.add(f"power-bound-{n}", excess, 10.0 * base / scale)
    return _outcome(checks, base)


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


def _run_verify_polynomial(cfg: ExperimentConfig, gen, base: float, scale: float):
    a = models.random_contraction(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    p = _random_unit_polynomial(cfg.poly_degree, gen)
    r = dil.generalized_foguel(a, t)
    r_norm = operator_norm(r)

    # one direct Horner evaluation of the assembled R, the oracle of every check
    direct = p.at_matrix(r)
    block = dil.poly_apply(p, a, t, direct)
    growth = sum(abs(c) * (1.0 + r_norm) ** j for j, c in enumerate(p.coeffs))
    dev = operator_norm(block - direct) / max(growth, 1.0)
    report = dil.verify_poly_bound(p, a, t, direct)

    checks = _Checks(scale)
    checks.add("poly-bound", max(0.0, -report.slack), base / scale)
    checks.add("poly-formula", dev, base / (10.0 * scale))
    return _outcome(checks, base)


def _run_verify_schur(cfg: ExperimentConfig, gen, base: float, scale: float):
    v = models.haar_unitary(cfg.dim, gen)
    t = models.ginibre(cfg.dim, gen)
    op = models.build_foguel(v, t)
    t_norm = operator_norm(t)
    closed = spectral.foguel_norm_closed(t_norm)
    checks = _Checks(scale)

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

    # closed-form reduction for unitary V
    level = gen.uniform(1.2, closed + 1.0)
    n = cfg.dim
    kernel = adjoint(v) @ solve_inverse(level**2 * np.eye(n) - v @ adjoint(v)) @ v
    exact = t @ kernel @ adjoint(t)
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    cf_dev = operator_norm(exact - closed_form) / max(t_norm**2, 1e-30)
    checks.add("neumann-closed-form", cf_dev, 1e-10)

    # truncated series respects the geometric tail bound; for a unitary slot
    # the error saturates the bound exactly, so measure the excess over it
    truncated = schur.neumann_eval(v, t, level, cfg.neumann_order)
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

    # bisection against the eigenvalue norm and the closed form; the
    # iteration budget is enforced inside norm_by_bisection itself
    result = schur.norm_by_bisection(op, Tolerance(atol=1e-7))
    svd_norm = operator_norm(op.matrix)
    checks.add("bisection-vs-norm", abs(result.value - svd_norm), base / scale)
    checks.add("bisection-vs-closed", abs(result.value - closed), base / scale)
    return _outcome(checks, base)


def _run_shift_convergence(cfg: ExperimentConfig, gen, base: float, scale: float):
    t_small = models.ginibre(4, gen)
    t_norm = operator_norm(t_small)
    closed = spectral.foguel_norm_closed(t_norm)
    dims = sorted(cfg.shift_dims)
    norms = []
    for big in dims:
        shift = models.truncated_shift(big)
        op = models.build_foguel(
            shift, models.embed_corner(t_small, big), require_isometry=False
        )
        norms.append(operator_norm(op.matrix))

    checks = _Checks(scale)
    for i in range(len(norms) - 1):
        checks.add(
            f"monotone-{dims[i]}-{dims[i + 1]}",
            max(0.0, norms[i] - norms[i + 1]),
            base / scale,
        )
    for big, value in zip(dims, norms):
        checks.add(f"bound-{big}", max(0.0, value - closed), 100.0 * base / scale)
    deviation, _, passed = _outcome(checks, base)
    # slack reports the convergence gap at the largest dimension; the
    # truncation rate itself is informational, never asserted
    return deviation, closed - norms[-1], passed


@dataclass(frozen=True)
class ExperimentSpec:
    """One subcommand: its runner, base tolerance, help line and own flags.

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
    scale = base / spec.base_tol
    started = time.perf_counter()

    records = []
    for trial in range(config.trials):
        gen = models.SeededGenerator(config.seed, trial)
        reason = ""
        try:
            deviation, slack, passed = spec.runner(config, gen, base, scale)
        except _EXPECTED_ERRORS as exc:
            deviation, slack, passed = None, None, False
            reason = _REASON_CODES.get(type(exc), "numeric-error")
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
