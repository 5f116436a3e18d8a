"""Spectrum and norm identities for Foguel operators with unitary ``V``.

The Gram operator ``G = R R*`` of ``R = [[V*, T], [0, V]]`` and the symbol
Gram ``T T*`` determine each other spectrally: ``lam > 0, lam != 1`` lies in
``spec(G)`` exactly when ``(lam - 1)^2 / lam`` lies in ``spec(T T*)``.  This
module implements that correspondence in both directions, the closed-form
norm it implies, explicit resolvent blocks for ``G - lam I``, and the block
inverses witnessing the invertibility of ``G`` and ``G - I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalConsistencyError, SingularMatrixError, ValidationError
from .linalg import (
    Tolerance,
    adjoint,
    block2,
    multiset_match,
    operator_norm,
    solve_inverse,
)
from .models import ISOMETRY_TOL, FoguelOperator

#: The resolvent construction refuses lam within this distance of {0, 1}.
LAMBDA_EXCLUSION = 1e-6

#: Minimum distance from the mapped eigenvalue to spec(T T*).
SPECTRAL_GAP = 1e-6


def forward_map(lam: float) -> float:
    """Eigenvalue map ``lam -> (lam - 1)^2 / lam`` from Gram to symbol side.

    Symmetric under ``lam -> 1/lam``, increasing for ``lam >= 1``.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValidationError(f"forward_map requires lam > 0, got {lam}")
    return (lam - 1.0) ** 2 / lam


def inverse_branches(mu: float) -> tuple[float, float]:
    """The two positive preimages of ``mu`` under :func:`forward_map`.

    Roots of ``lam^2 - (mu + 2) lam + 1 = 0``; returned as
    ``(lam_minus, lam_plus)`` with ``lam_minus = 1 / lam_plus <= 1``.  The
    larger branch is evaluated by the stable quadratic formula and the
    smaller as its reciprocal, so the product is 1 to machine precision.
    """
    mu = float(mu)
    if mu < 0:
        raise ValidationError(f"inverse_branches requires mu >= 0, got {mu}")
    return tuple(float(lam) for lam in _branches(mu))


def _branches(mu):
    """``(lam_minus, lam_plus)`` for ``mu >= 0``, a scalar or an array: the one branch formula."""
    lam_plus = ((mu + 2.0) + np.sqrt(mu * (mu + 4.0))) / 2.0
    return 1.0 / lam_plus, lam_plus


def foguel_norm_closed(t: float) -> float:
    """Closed-form Foguel norm ``(t + sqrt(t^2 + 4)) / 2`` of the symbol norm ``t``."""
    t = float(t)
    if t < 0:
        raise ValidationError(f"symbol norm must be >= 0, got {t}")
    return float((t + np.sqrt(t * t + 4.0)) / 2.0)


def symbol_norm_from_foguel(r: float) -> float:
    """Inverse of :func:`foguel_norm_closed`: ``(r^2 - 1) / r`` for ``r >= 1``."""
    r = float(r)
    if r < 1:
        raise ValidationError(f"Foguel norm is always >= 1, got {r}")
    return (r * r - 1.0) / r


@dataclass(frozen=True)
class SpectralMapReport:
    """Observed vs predicted Gram spectrum for one Foguel operator."""

    gram_spectrum: np.ndarray
    symbol_gram_spectrum: np.ndarray
    predicted_spectrum: np.ndarray
    max_deviation: float
    matched: bool


def _require_unitary_slot(op: FoguelOperator, what: str) -> None:
    if op.isometry_excess is not None:
        raise ValidationError(
            f"{what} requires unitary V: isometry defect "
            f"{op.isometry_excess:.3e} exceeds {ISOMETRY_TOL:.1e}"
        )


def verify_spectral_mapping(op: FoguelOperator, tol: Tolerance) -> SpectralMapReport:
    """Check that ``spec(R R*)`` equals the multiset predicted from ``spec(T T*)``.

    Each symbol eigenvalue ``mu`` contributes the reciprocal pair
    ``inverse_branches(mu)``; the union over all ``mu`` (with multiplicity)
    must reproduce the 2n Gram eigenvalues after sorting.
    """
    _require_unitary_slot(op, "spectral mapping")
    gram_spectrum = op.gram_eigvals
    if float(gram_spectrum[0]) < -1e-10:
        raise ValidationError(
            f"Gram operator has eigenvalue {gram_spectrum[0]:.3e} < 0; "
            "it is PSD by construction, so the eigensolve went wrong"
        )
    mu = op.symbol_gram_eigvals
    predicted = np.sort(np.concatenate(_branches(mu)))

    try:
        comparison = multiset_match(gram_spectrum, predicted, tol)
    except ValidationError as exc:  # 2n vs 2n by construction
        raise InternalConsistencyError(
            f"predicted spectrum has the wrong multiplicity count: {exc}"
        ) from exc
    return SpectralMapReport(
        gram_spectrum=gram_spectrum,
        symbol_gram_spectrum=mu,
        predicted_spectrum=predicted,
        max_deviation=comparison.max_deviation,
        matched=comparison.matched,
    )


@dataclass(frozen=True, eq=False)
class ResolventBlocks:
    """Hermitian solution ``S = [[A, X], [X*, B]]`` of ``(R R* - lam I) S = I``."""

    lam: float
    a: np.ndarray
    x: np.ndarray
    b: np.ndarray
    residual: float

    @cached_property
    def solution(self) -> np.ndarray:
        return block2(self.a, self.x, adjoint(self.x), self.b)


def resolvent_blocks(op: FoguelOperator, lam: float) -> ResolventBlocks:
    """Explicit blocks of ``(R R* - lam I)^{-1}`` for unitary ``V``.

    The diagonal block is
    ``A = ((lam - 1)/lam) * (T T* - mu I)^{-1}`` with ``mu = forward_map(lam)``,
    then ``X = A T V* / (lam - 1)`` and ``B = (V T* X - V V*) / (lam - 1)``.
    ``lam`` must stay ``LAMBDA_EXCLUSION`` away from the excluded points
    {0, 1} and ``mu`` at least ``SPECTRAL_GAP`` away from ``spec(T T*)``.
    """
    _require_unitary_slot(op, "resolvent construction")
    lam = float(lam)
    if lam < LAMBDA_EXCLUSION or abs(lam - 1.0) < LAMBDA_EXCLUSION:
        raise ValidationError(
            f"lam={lam} is inside the excluded band around 0 or 1 "
            f"(half-width {LAMBDA_EXCLUSION:.1e})"
        )
    mu = forward_map(lam)

    gap = float(np.min(np.abs(op.symbol_gram_eigvals - mu)))
    if gap < SPECTRAL_GAP:
        raise SingularMatrixError(
            f"mapped eigenvalue mu={mu:.6g} lies {gap:.3e} from spec(T T*), "
            f"closer than the required gap {SPECTRAL_GAP:.1e}",
            rcond=gap,
        )

    v, t, n = op.v, op.t, op.dim
    tt = t @ adjoint(t)
    symbol_gram = (tt + adjoint(tt)) / 2.0
    a = ((lam - 1.0) / lam) * solve_inverse(symbol_gram - mu * np.eye(n))
    a = (a + adjoint(a)) / 2.0
    x = (a @ t @ adjoint(v)) / (lam - 1.0)
    b = (v @ adjoint(t) @ x - v @ adjoint(v)) / (lam - 1.0)
    b = (b + adjoint(b)) / 2.0

    residual = operator_norm(
        (op.gram - lam * np.eye(2 * n)) @ block2(a, x, adjoint(x), b) - np.eye(2 * n)
    )
    return ResolventBlocks(lam=lam, a=a, x=x, b=b, residual=residual)


def foguel_inverse(op: FoguelOperator) -> np.ndarray:
    """Block inverse ``[[V, -V T V*], [0, V*]]`` of ``R`` itself (unitary ``V``).

    ``R`` is invertible exactly when ``V`` is unitary, and then this block
    matrix is its two-sided inverse; see :func:`foguel_gram_inverse` for the
    inverse of the Gram operator derived from it.
    """
    _require_unitary_slot(op, "Foguel inverse")
    v, t = op.v, op.t
    return block2(v, -(v @ t @ adjoint(v)), None, adjoint(v))


def foguel_gram_inverse(op: FoguelOperator) -> np.ndarray:
    """Inverse of the Gram operator ``R R*``, assembled as ``M* M`` with ``M = R^{-1}``."""
    m = foguel_inverse(op)
    g_inv = adjoint(m) @ m
    return (g_inv + adjoint(g_inv)) / 2.0


def gram_minus_identity_inverse(op: FoguelOperator) -> np.ndarray:
    """Block inverse ``[[0, X], [X*, -I]]`` of ``R R* - I`` with ``X = (T^{-1})* V*``.

    ``R R* - I`` is invertible exactly when the symbol ``T`` is, so a
    singular ``T`` raises :class:`SingularMatrixError` rather than returning
    a garbage witness.
    """
    _require_unitary_slot(op, "Gram-minus-identity inverse")
    try:
        t_inv = solve_inverse(op.t)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"R R* - I is invertible only for invertible T: {exc}",
            rcond=exc.rcond,
        ) from exc
    x = adjoint(t_inv) @ adjoint(op.v)
    return block2(None, x, adjoint(x), -np.eye(op.dim))
