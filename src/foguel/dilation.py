"""Unitary dilation of contractions and the block power/polynomial calculus.

A contraction ``A`` embeds in the unitary
``[[A, (I - A A*)^{1/2}], [(I - A* A)^{1/2}, -A*]]``; lifting the
generalized block operator ``R = [[A*, T], [0, A]]`` through that dilation
produces a genuine Foguel operator ``W`` with a padded symbol of the same
norm, so ``||R||`` is capped by ``||W||``, which equals the closed-form
Foguel norm of ``||T||``.  Powers and polynomials of ``R`` stay upper
triangular with an explicit off-diagonal block, which yields computable
norm bounds for ``p(R)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolationError, InternalConsistencyError, ValidationError
from .linalg import (
    CONTRACTION_TOL,
    adjoint,
    as_matrix,
    block2,
    certified_within,
    operator_norm,
    require_contraction,
    require_pair,
    require_square,
)
from .models import FoguelOperator, build_foguel
from .spectral import foguel_norm_closed

#: Boundary samples used to estimate sup norms over the unit disk; by the
#: maximum-modulus principle boundary sampling suffices, and 4096 points keep
#: the sampling error far below test tolerances for degree <= 64.
BOUNDARY_SAMPLES = 4096

POWER_SELFCHECK_TOL = 1e-9
POLY_SELFCHECK_TOL = 1e-9
COMPRESSION_SLACK_TOL = 1e-10
NORM_BOUND_SLACK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Complex polynomial ``a_0 + a_1 z + ... + a_m z^m`` (ascending coefficients)."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(complex(c) for c in coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def tilde(self) -> "Polynomial":
        """The polynomial with each coefficient replaced by its modulus."""
        return Polynomial(abs(c) for c in self.coeffs)

    def __call__(self, z):
        """Evaluate at a scalar or ndarray of points (Horner)."""
        z = np.asarray(z)
        result = np.full_like(z, self.coeffs[-1], dtype=np.complex128)
        for c in reversed(self.coeffs[:-1]):
            result = result * z + c
        return result

    def at_matrix(self, m: np.ndarray) -> np.ndarray:
        """Evaluate at a square matrix by Horner's scheme."""
        m = require_square(m)
        eye = np.eye(m.shape[0], dtype=np.complex128)
        result = self.coeffs[-1] * eye
        for c in reversed(self.coeffs[:-1]):
            result = result @ m + c * eye
        return result

    def boundary_sup(self, samples: int = BOUNDARY_SAMPLES) -> float:
        """Max modulus over `samples` equispaced points of the unit circle."""
        z = np.exp(2j * np.pi * np.arange(samples) / samples)
        return float(np.max(np.abs(self(z))))


def tilde_deriv_bound(p: Polynomial) -> float:
    """Sup over the closed disk of the derivative of ``p.tilde()``.

    Equals ``sum_j j * |a_j|``: a polynomial with non-negative coefficients
    attains its sup-norm on the disk at ``z = 1``.
    """
    return float(sum(j * abs(c) for j, c in enumerate(p.coeffs)))


def generalized_foguel(a, t) -> np.ndarray:
    """Assemble the block operator ``[[A*, T], [0, A]]`` (no isometry demanded)."""
    a, t = require_pair(a, t, ("A", "T"))
    return block2(adjoint(a), t, None, a)


def halmos_dilation(a) -> np.ndarray:
    """Unitary dilation ``[[A, (I-AA*)^{1/2}], [(I-A*A)^{1/2}, -A*]]``.

    The minus sign on the ``(2,2)`` block is what makes the block matrix
    unitary; with ``+A*`` the defect cross-terms add instead of cancel and
    the result is far from an isometry for generic ``A``.

    Both defect square roots are built from a single SVD of ``A``: with
    ``A = U S V*`` they are ``U sqrt(I-S^2) U*`` and ``V sqrt(I-S^2) V*``,
    which keeps the unitarity residual at the scale of the SVD itself even
    when singular values sit exactly at 1.
    """
    a = require_square(a, "A")
    require_contraction(a, "A")
    u, s, vh = np.linalg.svd(a)
    g = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    defect_left = (u * g) @ adjoint(u)  # (I - A A*)^{1/2}
    defect_right = (adjoint(vh) * g) @ vh  # (I - A* A)^{1/2}
    return block2(
        a,
        (defect_left + adjoint(defect_left)) / 2.0,
        (defect_right + adjoint(defect_right)) / 2.0,
        -adjoint(a),
    )


@dataclass(frozen=True, eq=False)
class DilationLift:
    """A contraction, its unitary dilation, and the lifted Foguel operator.

    ``lifted`` is the 4n x 4n Foguel operator whose isometry slot is the
    dilation and whose symbol pads ``T`` into the upper-right n x n block of
    a 2n x 2n matrix; padding preserves the symbol norm exactly.
    """

    contraction: np.ndarray
    dilation: np.ndarray
    padded_symbol: np.ndarray
    operator: FoguelOperator

    @cached_property
    def lifted(self) -> np.ndarray:
        return self.operator.matrix


def lift_foguel(a, t) -> DilationLift:
    """Lift ``[[A*, T], [0, A]]`` to a genuine Foguel operator via dilation."""
    a, t = require_pair(a, t, ("A", "T"))
    dilation = halmos_dilation(a)
    padded = block2(None, t, None, None)
    operator = build_foguel(dilation, padded, require_isometry=True)
    return DilationLift(
        contraction=a, dilation=dilation, padded_symbol=padded, operator=operator
    )


def compress_generalized(a, t) -> np.ndarray:
    """Assemble ``R = [[A*, T], [0, A]]`` and verify the dilation norm bound.

    Checks ``||R|| <= ||W||`` for the lifted operator ``W`` and hence
    ``||R||`` against the closed-form Foguel norm of ``||T||``.  A violation
    would falsify the compression argument and raises
    :class:`BoundViolationError` carrying both norms.
    """
    lift = lift_foguel(a, t)
    r = generalized_foguel(a, t)
    r_norm = operator_norm(r)
    w_norm = operator_norm(lift.lifted)
    if r_norm > w_norm + COMPRESSION_SLACK_TOL:
        raise BoundViolationError(
            f"compression bound violated: ||R||={r_norm:.12g} exceeds "
            f"||W||={w_norm:.12g}",
            value=r_norm,
            bound=w_norm,
        )
    closed = foguel_norm_closed(operator_norm(as_matrix(t)))
    if r_norm > closed + NORM_BOUND_SLACK_TOL:
        raise BoundViolationError(
            f"compression bound violated: ||R||={r_norm:.12g} exceeds "
            f"closed-form bound {closed:.12g}",
            value=r_norm,
            bound=closed,
        )
    return r


def power_offdiag(a, t, n: int) -> np.ndarray:
    """Off-diagonal block ``sum_{j=0}^{n-1} (A*)^j T A^{n-1-j}`` of the n-th power."""
    a, t = require_pair(a, t, ("A", "T"))
    n = int(n)
    if n < 1:
        raise ValidationError(f"power index must be >= 1, got {n}")
    a_star = adjoint(a)
    # accumulate via the recurrence D_{k+1} = A* D_k + T A^k, D_1 = T
    total = t.copy()
    a_pow = np.eye(a.shape[0], dtype=np.complex128)
    for _ in range(n - 1):
        a_pow = a_pow @ a
        total = a_star @ total + t @ a_pow
    return total


def _direct_or(direct, r: np.ndarray, evaluate) -> np.ndarray:
    """The caller's direct evaluation at ``R``, shape-checked, or ``evaluate(r)``."""
    if direct is None:
        return evaluate(r)
    if np.shape(direct) != r.shape:
        raise ValidationError(
            f"direct evaluation must have shape {r.shape}, got {np.shape(direct)}"
        )
    return direct


def foguel_power(a, t, n: int, direct=None) -> np.ndarray:
    """n-th power of ``[[A*, T], [0, A]]`` from the explicit block formula.

    Assembles ``[[(A*)^n, D_n], [0, A^n]]`` and self-checks it against
    direct repeated multiplication, ``direct`` when the caller passes its
    own product ``R^n`` of the assembled ``R``; a mismatch beyond
    ``1e-9 * (1 + ||R||)^n`` is an internal-consistency error.
    """
    n = int(n)
    if n < 1:
        raise ValidationError(f"power index must be >= 1, got {n}")
    r = generalized_foguel(a, t)
    direct = _direct_or(direct, r, lambda r: np.linalg.matrix_power(r, n))
    a = as_matrix(a)
    block = block2(
        np.linalg.matrix_power(adjoint(a), n),
        power_offdiag(a, t, n),
        None,
        np.linalg.matrix_power(a, n),
    )

    def allowed(norm):
        return POWER_SELFCHECK_TOL * (1.0 + norm) ** n

    residual = block - direct
    if not certified_within(residual, r, allowed):
        bound = allowed(operator_norm(r))
        dev = operator_norm(residual)
        if dev > bound:
            raise InternalConsistencyError(
                f"power block formula deviates from direct multiplication by "
                f"{dev:.3e} (allowed {bound:.3e})"
            )
    return block


def poly_apply(p: Polynomial, a, t, direct=None) -> np.ndarray:
    """Evaluate ``p`` at ``[[A*, T], [0, A]]`` via the block formula.

    Returns ``[[sum_j a_j (A*)^j, sum_{j>=1} a_j D_j], [0, p(A)]]``; note the
    upper-left block carries the original coefficients (not their
    conjugates), which is what the power expansion forces.  Self-checked
    against direct Horner evaluation, ``direct`` when the caller passes its
    own ``p.at_matrix(R)``.
    """
    r = generalized_foguel(a, t)
    direct = _direct_or(direct, r, p.at_matrix)
    a = as_matrix(a)
    t = as_matrix(t)
    dim = a.shape[0]
    a_star = adjoint(a)

    upper_left = p.coeffs[0] * np.eye(dim, dtype=np.complex128)
    lower_right = p.coeffs[0] * np.eye(dim, dtype=np.complex128)
    upper_right = np.zeros((dim, dim), dtype=np.complex128)

    a_star_pow = np.eye(dim, dtype=np.complex128)
    a_pow = np.eye(dim, dtype=np.complex128)
    offdiag = np.zeros((dim, dim), dtype=np.complex128)  # D_j, starting at D_0 = 0
    for j, coeff in enumerate(p.coeffs[1:], start=1):
        offdiag = a_star @ offdiag + t @ a_pow  # D_j from D_{j-1}
        a_star_pow = a_star_pow @ a_star
        a_pow = a_pow @ a
        upper_left += coeff * a_star_pow
        lower_right += coeff * a_pow
        upper_right += coeff * offdiag

    block = block2(upper_left, upper_right, None, lower_right)

    def allowed(norm):
        growth = 1.0 + norm
        return POLY_SELFCHECK_TOL * sum(abs(c) * growth**j for j, c in enumerate(p.coeffs))

    residual = block - direct
    if not certified_within(residual, r, lambda norm: max(allowed(norm), POLY_SELFCHECK_TOL)):
        bound = allowed(operator_norm(r))
        dev = operator_norm(residual)
        if dev > max(bound, POLY_SELFCHECK_TOL):
            raise InternalConsistencyError(
                f"polynomial block formula deviates from direct evaluation by "
                f"{dev:.3e} (allowed {bound:.3e})"
            )
    return block


@dataclass(frozen=True)
class PolyBoundReport:
    """Both sides of the polynomial norm bound and the observed slack."""

    applied_norm: float
    bound: float
    slack: float
    sup_norm: float


def verify_poly_bound(p: Polynomial, a, t, direct=None) -> PolyBoundReport:
    """Check ``||p(R)|| <= Phi(||tilde(p)'||_inf * ||T||)`` for a contraction ``A``.

    Requires ``sup_{|z|<=1} |p(z)| <= 1`` (estimated by dense boundary
    sampling); the bound is not asserted for unnormalized polynomials.
    ``||p(R)||`` is the norm of ``direct`` when the caller passes its own
    ``p.at_matrix(R)``, and of a fresh Horner evaluation otherwise.
    Negative slack beyond ``1e-8`` raises :class:`BoundViolationError`.
    """
    a = require_square(a, "A")
    require_contraction(a, "A")
    sup = p.boundary_sup()
    if sup > 1.0 + CONTRACTION_TOL:
        raise ValidationError(
            f"polynomial sup-norm on the disk is {sup:.12g} > 1; "
            "normalize before applying the bound"
        )
    r = generalized_foguel(a, t)
    applied_norm = operator_norm(_direct_or(direct, r, p.at_matrix))
    bound = foguel_norm_closed(tilde_deriv_bound(p) * operator_norm(as_matrix(t)))
    slack = bound - applied_norm
    if slack < -NORM_BOUND_SLACK_TOL:
        raise BoundViolationError(
            f"polynomial norm bound violated: ||p(R)||={applied_norm:.12g} "
            f"exceeds bound {bound:.12g}",
            value=applied_norm,
            bound=bound,
        )
    return PolyBoundReport(
        applied_norm=applied_norm, bound=bound, slack=slack, sup_norm=sup
    )
