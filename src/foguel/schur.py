"""Norm recovery through Schur-complement positivity.

For ``M > 1`` the block operator ``M^2 I - R R*`` is PSD exactly when its
n x n Schur complement is, which reduces the 2n-dimensional norm question
``||R|| <= M`` to a positivity test on the symbol side.  For unitary ``V``
the reduction collapses to a closed form whose boundary reproduces the
Foguel norm formula.  ``||R||`` is the root of the reduced matrix's
smallest eigenvalue as a function of ``M``; a safeguarded Newton iteration
finds it to a few ulps, and positivity verdicts keep its bracket and
certify the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalConsistencyError, NotPositiveSemidefiniteError, ValidationError
from .linalg import (
    Tolerance,
    adjoint,
    hermitian_eigs,
    hermitian_eigvals,
    operator_norm,
    psd_verdict,
    require_conditioned,
    require_index,
)
from .models import FoguelOperator
from .spectral import foguel_norm_closed

#: Minimum eigenvalue demanded of the lower-right block before inverting it.
POSITIVE_DEFINITE_FLOOR = 1e-12

#: The positivity level must exceed 1 by at least this much.
LEVEL_MARGIN = 1e-12

#: A Newton step of at most this many ulps of the level ends :func:`norm_by_bisection`;
#: the step's rounding floor, where it stops shrinking, measured at most 6 ulps.
NEWTON_STOP_ULPS = 16

#: Levels :func:`norm_by_bisection` evaluates at most before its closing certificate.
MAX_ITERATIONS = 60

#: :func:`norm_by_bisection` starts at the closed-form norm times ``1 + START_OFFSET``:
#: near enough that the first Newton step lands within about ``START_OFFSET**2``
#: of the norm, and far enough that the first level's ``f >= 2 START_OFFSET M^2``
#: is at least 100 singular bands ``1e-10 (1 + M^2)`` above zero and a start
#: left unmoved is farther than verify-schur's 1e-10 from the closed form.
START_OFFSET = 1e-8


def _complement(p, y, d) -> np.ndarray:
    """Schur complement ``P - X Q^{-1} X*`` from the eigenpairs ``Q = U diag(d) U*``.

    Takes ``y = X U``, so the complement is ``P - Y diag(1/d) Y*``.  ``Q``
    is refused unless its minimum eigenvalue reaches
    ``POSITIVE_DEFINITE_FLOOR`` and :func:`~foguel.linalg.require_conditioned`
    accepts ``|d|``.
    """
    q_min = float(np.min(d))
    if q_min < POSITIVE_DEFINITE_FLOOR:
        raise NotPositiveSemidefiniteError(
            f"lower-right block is not positive definite: min eigenvalue "
            f"{q_min:.3e} below {POSITIVE_DEFINITE_FLOOR:.1e}",
            min_eigenvalue=q_min,
        )
    require_conditioned(np.abs(d), "lower-right block")
    complement = p - (y / d) @ adjoint(y)
    return (complement + adjoint(complement)) / 2.0


@dataclass(frozen=True, eq=False)
class PositivityCertificate:
    """Verdict on ``M^2 I - R R* >= 0`` via the reduced n x n condition.

    ``min_eigenvalue``, the reduced matrix's smallest eigenvalue, is
    computed on first read, so a caller that needs only ``positive`` never
    pays for the eigensolve.
    """

    level: float
    reduced_matrix: np.ndarray
    positive: bool
    direct_min_eigenvalue: float
    threshold: float

    @cached_property
    def min_eigenvalue(self) -> float:
        return float(hermitian_eigvals(self.reduced_matrix)[0])


def foguel_positivity(op: FoguelOperator, level: float) -> PositivityCertificate:
    """Test ``level^2 I - R R* >= 0`` by Schur reduction to the symbol side.

    The reduced matrix is
    ``level^2 I - V* V - T T* - T V* (level^2 I - V V*)^{-1} V T*``
    (``(level^2 - 1) I - T T* - ...`` when ``V`` is an isometry).  The
    verdict is cross-checked against the direct 2n x 2n eigenvalue test;
    the two may straddle the threshold only inside the singular band, and a
    confident disagreement raises :class:`InternalConsistencyError`.
    Both routes read level-independent spectra cached on ``op``, so a level
    costs one n x n product and at most two n x n Cholesky factorizations
    (:func:`~foguel.linalg.psd_verdict`).  The reduced matrix's exact
    eigensolve runs only when that certificate cannot decide or disagrees
    with the direct route, so the verdict is always the exact one.

    PSD is declared when the minimum eigenvalue is at least ``-threshold``
    for ``threshold = 1e-10 * (1 + level^2)``; an exact zero crossing at
    ``level = ||R||`` makes a signed band unavoidable.
    """
    level = float(level)
    if not level > 1.0 + LEVEL_MARGIN:
        raise ValidationError(
            f"positivity level must exceed 1 (the norm is never below 1), got {level}"
        )
    op.v_contraction_norm  # raises ValidationError unless V is a contraction
    threshold = 1e-10 * (1.0 + level * level)

    # level-independent data is cached on op: with V V* = U diag(w) U*, the
    # lower-right block level^2 I - V V* has eigenpairs (level^2 - w, U)
    level_sq = level**2
    w, _ = op.vv_eigs
    upper = level_sq * np.eye(op.dim, dtype=np.complex128) - op.gram_corner
    reduced = _complement(upper, op.coupling, level_sq - w)
    # direct route: eig(level^2 I - G) = level^2 - eig(G), read from an
    # eigensolve of the 2n x 2n Gram operator, never from the reduced matrix
    direct_min = level_sq - float(op.gram_eigvals[-1])
    verdict_direct = direct_min >= -threshold

    positive = psd_verdict(reduced, threshold)
    if positive != verdict_direct:  # undecided, or a disagreement to judge exactly
        reduced_min = float(hermitian_eigvals(reduced)[0])
        positive = reduced_min >= -threshold
        if positive != verdict_direct and min(abs(reduced_min), abs(direct_min)) > threshold:
            raise InternalConsistencyError(
                f"reduced and direct positivity verdicts disagree at "
                f"level={level!r}: reduced min eig {reduced_min:.3e}, "
                f"direct min eig {direct_min:.3e}"
            )
        # borderline: both magnitudes sit in the singular band; trust the
        # reduced route, which is the one this module is about
    return PositivityCertificate(
        level=level,
        reduced_matrix=reduced,
        positive=positive,
        direct_min_eigenvalue=direct_min,
        threshold=threshold,
    )


def neumann_eval(op: FoguelOperator, level: float, order: int) -> np.ndarray:
    """Truncated Neumann evaluation of ``T V* (level^2 I - V V*)^{-1} V T*``.

    Sums ``level^{-2} * sum_{j=0}^{order} V (V V*)^j V* / level^{2j}``
    sandwiched between ``T`` and ``T*``.  Converges for ``level > 1`` and a
    contraction ``V``; for unitary ``V`` the limit is the closed form
    ``(level^2 - 1)^{-1} T T*`` and the truncation error decays
    geometrically with ratio ``level^{-2}``.

    With ``X = V V* / level^2`` the kernel is ``X S`` for the geometric sum
    ``S = sum_{j=0}^{order} X^j``, built by binary splitting over the bits
    of ``order + 1`` (Higham, *Functions of Matrices*, 2008, §4.2) in at
    most three products per bit rather than one per term.  The saving is
    largest at a large level, where the high powers of ``X`` are subnormal
    and every product through them is slow.
    """
    level = float(level)
    if not level > 1.0:
        raise ValidationError(
            f"Neumann series diverges for level <= 1, got {level}"
        )
    order = require_index(order, "truncation order", 0)
    op.v_contraction_norm  # raises ValidationError unless V is a contraction

    x = (op.v @ adjoint(op.v)) * level ** (-2)
    # carry S_m = sum_{j<m} X^j and W = X^m from m = 1 through the bits of order + 1
    partial = np.eye(op.dim, dtype=np.complex128)
    power = x
    for bit in bin(order + 1)[3:]:
        partial = partial + power @ partial  # S_2m = S_m + X^m S_m
        power = power @ power
        if bit == "1":
            partial = partial + power  # S_(m+1) = S_m + X^m
            power = power @ x
    result = op.t @ (x @ partial) @ adjoint(op.t)
    return (result + adjoint(result)) / 2.0


def scalar_criterion(t: float, level: float) -> bool:
    """Scalar positivity criterion ``t <= (level^2 - 1) / level``.

    For unitary ``V`` and ``t = ||T||`` this is exactly when
    ``level^2 I - R R*`` is PSD, so the boundary level is the Foguel norm.
    """
    t = float(t)
    level = float(level)
    if not t >= 0:
        raise ValidationError(f"symbol norm must be >= 0, got {t}")
    if not level > 1.0:
        raise ValidationError(f"criterion level must exceed 1, got {level}")
    return t <= (level * level - 1.0) / level


@dataclass(frozen=True)
class NormBisection:
    """``||R||`` from the Schur reduction, with the bracket that positivity certifies.

    ``iterations`` counts the levels the Newton iteration evaluated;
    positivity fails at ``lower`` and holds at ``upper``.
    """

    value: float
    iterations: int
    lower: float
    upper: float


def norm_by_bisection(op: FoguelOperator, tol: Tolerance) -> NormBisection:
    """The norm of the Foguel operator from the reduced route, with a certified bracket.

    A safeguarded Newton iteration (Brent, 1973, ch. 4) on
    ``f(M) = lambda_min`` of the reduced matrix, whose root is ``||R||``,
    with the Hellmann-Feynman slope
    ``f'(M) = 2M (1 + sum_k |(Y* x)_k|^2 / (M^2 - w_k)^2)`` for the bottom
    eigenvector ``x``, ``Y = op.coupling`` and ``w`` the eigenvalues of
    ``V V*``.  It starts at ``closed * (1 + START_OFFSET)``, just above the
    closed-form norm, where positivity must hold: a failed verdict there
    raises :class:`InternalConsistencyError`.  That start is the upper end
    of the bracket ``(1 + LEVEL_MARGIN, closed * (1 + START_OFFSET)]``,
    which the positivity verdict at each level narrows.  Beyond the
    singular band ``threshold / f'(M)`` a verdict fixes the sign of ``f``:
    a failed one demands a step below ``-band``, a held one a step of at
    least ``-band``.  A step that contradicts its verdict becomes a
    bisection step and cannot end the iteration; so does a step that would
    leave the bracket, unless it is shorter than the band.  Otherwise a
    step of at most ``NEWTON_STOP_ULPS`` ulps ends the iteration, after two
    levels for the experiments' draws.  It reads the closed form for the
    start alone and never reads the Gram spectrum.

    Positivity must then fail at ``value - tol.atol / 2`` and hold at
    ``value + tol.atol / 2``, or :class:`InternalConsistencyError` is
    raised; a ``tol.atol`` of at most four singular bands cannot be
    certified and raises :class:`ValidationError`.  A symbol too small for
    that bracket to lie above ``1 + LEVEL_MARGIN`` short-circuits to the
    directly computed norm.
    """
    closed = foguel_norm_closed(op.symbol_norm)
    if closed - tol.atol <= 1.0 + LEVEL_MARGIN:
        return NormBisection(
            value=operator_norm(op.matrix), iterations=0, lower=1.0, upper=closed
        )

    w, _ = op.vv_eigs
    lower, upper = 1.0 + LEVEL_MARGIN, closed * (1.0 + START_OFFSET)
    level = upper
    for iterations in range(1, MAX_ITERATIONS + 1):
        cert = foguel_positivity(op, level)
        if cert.positive:
            upper = min(upper, level)
        elif iterations == 1:
            raise InternalConsistencyError(
                f"bracket invariant violated: positivity fails at the upper end "
                f"{upper!r} above the closed-form bound"
            )
        else:
            lower = max(lower, level)
        eigvals, eigvecs = hermitian_eigs(cert.reduced_matrix)
        y = adjoint(op.coupling) @ eigvecs[:, 0]
        slope = 2.0 * level * (1.0 + float(np.sum(np.abs(y) ** 2 / (level**2 - w) ** 2)))
        step = float(eigvals[0]) / slope
        band = cert.threshold / slope
        # beyond the singular band the verdict fixes the sign of f, so a step
        # that contradicts it is wrong: it becomes a bisection step and cannot
        # end the iteration
        if (step < -band) == cert.positive:
            level = (lower + upper) / 2.0
            continue
        level -= step
        if abs(step) <= NEWTON_STOP_ULPS * np.spacing(level):
            break
        # a verdict cannot order a level within the singular band against the
        # norm, so a step that short is taken even where it leaves the bracket
        if not lower < level < upper and abs(step) > band:
            level = (lower + upper) / 2.0

    if tol.atol <= 4.0 * band:
        raise ValidationError(
            f"tolerance {tol.atol!r} is too fine to certify at level {level!r}: "
            f"verdicts within {band:.3e} of the norm cannot order it"
        )
    lower, upper = level - tol.atol / 2.0, level + tol.atol / 2.0
    if foguel_positivity(op, lower).positive:
        raise InternalConsistencyError(
            f"certified bracket violated: positivity holds at the lower end {lower!r}"
        )
    if not foguel_positivity(op, upper).positive:
        raise InternalConsistencyError(
            f"certified bracket violated: positivity fails at the upper end {upper!r}"
        )
    return NormBisection(value=level, iterations=iterations, lower=lower, upper=upper)
