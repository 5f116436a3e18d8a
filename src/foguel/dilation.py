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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    CONTRACTION_TOL,
    adjoint,
    block2,
    operator_norm,
    refuse_expansion,
    require_index,
    require_pair,
    require_square,
)
from .models import FoguelOperator
from .spectral import foguel_norm_closed

#: Boundary samples used to estimate sup norms over the unit disk; by the
#: maximum-modulus principle boundary sampling suffices, and 4096 points keep
#: the sampling error far below test tolerances for degree <= 64.
BOUNDARY_SAMPLES = 4096

#: The ``BOUNDARY_SAMPLES`` roots of unity, built once and read-only.
_BOUNDARY_POINTS = np.exp(2j * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES)
_BOUNDARY_POINTS.flags.writeable = False


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

    def __call__(self, z):
        """Evaluate at a scalar or ndarray of points (Horner)."""
        z = np.asarray(z)
        result = np.full_like(z, self.coeffs[-1], dtype=np.complex128)
        for c in reversed(self.coeffs[:-1]):
            result = result * z + c
        return result

    def at_matrix(self, m: np.ndarray) -> np.ndarray:
        """Evaluate at a square matrix by Paterson--Stockmeyer.

        With ``s = isqrt(d)`` at degree ``d >= 1``, the powers ``m^2, ..., m^s``
        are formed once, and Horner's scheme runs in ``m^s`` over chunks of
        ``s`` coefficients, each chunk a linear combination of the powers
        below ``m^s``; the top chunk takes the last 2 to ``s + 1``
        coefficients, up to ``m^s``.  That is ``s - 1 + (d - 1) // s`` products, about
        ``2 sqrt(d)`` against Horner's ``d`` (Paterson and Stockmeyer, SIAM J.
        Comput. 2(1), 1973; Higham, *Functions of Matrices*, SIAM 2008, §4.2).
        """
        m = require_square(m)
        c, degree = self.coeffs, self.degree
        s = max(math.isqrt(degree), 1)
        powers = [np.eye(m.shape[0], dtype=np.complex128), m]
        while len(powers) <= s:
            powers.append(powers[-1] @ m)

        def chunk(lo: int, hi: int) -> np.ndarray:
            """``sum_{i=lo}^{hi} c_i m^(i - lo)``."""
            return sum(c[i] * powers[i - lo] for i in range(lo, hi + 1))

        top = (degree - 1) // s * s if degree else 0
        result = chunk(top, degree)
        for lo in range(top - s, -1, -s):
            result = result @ powers[s] + chunk(lo, lo + s - 1)
        return result

    def boundary_sup(self) -> float:
        """Max modulus over the ``BOUNDARY_SAMPLES`` roots of unity, read from one shared grid."""
        return float(np.max(np.abs(self(_BOUNDARY_POINTS))))


def tilde_deriv_bound(p: Polynomial) -> float:
    """Sup over the closed disk of the derivative of ``tilde(p) = sum_j |a_j| z^j``.

    Equals ``sum_j j * |a_j|``: a polynomial with non-negative coefficients
    attains its sup-norm on the disk at ``z = 1``.
    """
    return float(sum(j * abs(c) for j, c in enumerate(p.coeffs)))


def generalized_foguel(a, t) -> FoguelOperator:
    """The validated ``FoguelOperator`` ``[[A*, T], [0, A]]``; no isometry is demanded of ``A``."""
    a, t = require_pair(a, t, ("A", "T"))
    return FoguelOperator(v=a, t=t)


def halmos_dilation(a) -> np.ndarray:
    """Unitary dilation ``[[A, (I-AA*)^{1/2}], [(I-A*A)^{1/2}, -A*]]``.

    The minus sign on the ``(2,2)`` block is what makes the block matrix
    unitary; with ``+A*`` the defect cross-terms add instead of cancel and
    the result is far from an isometry for generic ``A``.

    Both defect square roots are built from a single SVD of ``A``: with
    ``A = U S V*`` they are ``U sqrt(I-S^2) U*`` and ``V sqrt(I-S^2) V*``,
    which keeps the unitarity residual at the scale of the SVD itself even
    when singular values sit exactly at 1.  The same SVD's largest singular
    value is the ``||A||`` a non-contraction is refused by.
    """
    return _dilation(require_square(a, "A"))


def _dilation(a: np.ndarray) -> np.ndarray:
    """:func:`halmos_dilation` of a validated square ``a``."""
    u, s, vh = np.linalg.svd(a)
    refuse_expansion(float(s[0]), "A")  # ||A|| from this SVD, not a second eigensolve
    g = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    defect_left = (u * g) @ adjoint(u)  # (I - A A*)^{1/2}
    defect_right = (adjoint(vh) * g) @ vh  # (I - A* A)^{1/2}
    return block2(
        a,
        (defect_left + adjoint(defect_left)) / 2.0,
        (defect_right + adjoint(defect_right)) / 2.0,
        -adjoint(a),
    )


def lift_foguel(op: FoguelOperator) -> FoguelOperator:
    """Lift ``op``, the operator ``[[A*, T], [0, A]]``, to a genuine Foguel operator via dilation.

    The result's isometry slot ``v`` is :func:`halmos_dilation` of ``A``,
    its symbol ``t`` pads ``T`` into the upper-right n x n block of a
    2n x 2n matrix (padding preserves the symbol norm exactly), ``matrix``
    is the 4n x 4n operator ``W`` and ``isometry_defect`` the dilation's
    unitarity defect.  The dilation is unitary by construction and ``op``
    was validated where it was built, so the lift is built without
    ``build_foguel``; the defect matrix is formed only where
    ``isometry_defect`` is read (verify-dilation's ``dilation-unitarity``
    check).  A non-contraction ``A`` still raises.
    """
    return FoguelOperator(v=_dilation(op.v), t=block2(None, op.t, None, None))


def _power_step(op: FoguelOperator, previous: np.ndarray) -> np.ndarray:
    """The block formula for ``R^n`` from that for ``R^(n-1)``, in two order-n products.

    ``A^n = A^(n-1) A`` and ``D_n = A* D_(n-1) + T A^(n-1)``, with ``A^(n-1)``
    and ``D_(n-1)`` read from ``previous``; the upper-left block is
    ``adjoint(A^n)``.  verify-power steps the block ``foguel_power`` gave for ``n = 1``.
    """
    a, k = op.v, op.dim
    a_prev = previous[k:, k:]
    a_pow = a_prev @ a
    return block2(adjoint(a_pow), adjoint(a) @ previous[:k, k:] + op.t @ a_prev, None, a_pow)


def foguel_power(op: FoguelOperator, n: int) -> np.ndarray:
    """n-th power of ``op``, the operator ``[[A*, T], [0, A]]``, from the explicit block formula.

    ``[[(A*)^n, D_n], [0, A^n]]`` is ``n - 1`` :func:`_power_step` steps from
    ``R``, formed from ``op.v`` and ``op.t``, never read from ``op.matrix``.
    The block is not compared with ``R^n`` here: verify-power's
    ``power-formula-n`` check does that against its own running product.
    """
    n = require_index(n, "power index", 1)
    block = block2(adjoint(op.v), op.t, None, op.v)
    for _ in range(n - 1):
        block = _power_step(op, block)
    return block


def poly_apply(p: Polynomial, op: FoguelOperator) -> np.ndarray:
    """Evaluate ``p`` at ``op``, the operator ``[[A*, T], [0, A]]``, via the block formula.

    Returns ``[[sum_j a_j (A*)^j, sum_{j>=1} a_j D_j], [0, p(A)]]``; note the
    upper-left block carries the original coefficients (not their
    conjugates), which is what the power expansion forces.  It is formed as
    ``(sum_j conj(a_j) A^j)*`` from the one chain of powers ``A^j`` that
    ``p(A)`` and the ``D_j`` recursion read, so each degree costs three
    order-n products, on ``op.v`` and ``op.t`` alone.  The block is not
    compared with ``p(op.matrix)`` here: verify-polynomial's ``poly-formula``
    check does that.
    """
    a, t, dim = op.v, op.t, op.dim
    a_star = adjoint(a)

    eye = np.eye(dim, dtype=np.complex128)
    conj_sum = p.coeffs[0].conjugate() * eye  # sum_j conj(a_j) A^j, the upper-left block's adjoint
    lower_right = p.coeffs[0] * eye
    upper_right = np.zeros((dim, dim), dtype=np.complex128)

    a_pow = eye
    offdiag = np.zeros((dim, dim), dtype=np.complex128)  # D_j, starting at D_0 = 0
    for coeff in p.coeffs[1:]:
        offdiag = a_star @ offdiag + t @ a_pow  # D_j from D_{j-1}
        a_pow = a_pow @ a
        conj_sum += coeff.conjugate() * a_pow
        lower_right += coeff * a_pow
        upper_right += coeff * offdiag

    return block2(adjoint(conj_sum), upper_right, None, lower_right)


@dataclass(frozen=True)
class PolyBoundReport:
    """Both sides of the polynomial norm bound and the observed slack."""

    applied_norm: float
    bound: float
    slack: float
    sup_norm: float


def verify_poly_bound(p: Polynomial, op: FoguelOperator, direct=None) -> PolyBoundReport:
    """Both sides of ``||p(R)|| <= Phi(||tilde(p)'||_inf * ||T||)`` for a contraction slot.

    Requires ``sup_{|z|<=1} |p(z)| <= 1`` (estimated by dense boundary
    sampling); the bound is not asserted for unnormalized polynomials.
    ``||p(R)||`` is the norm of ``direct`` when the caller passes its own
    ``p.at_matrix(op.matrix)``, and of a fresh one otherwise.  The report's
    ``slack`` is ``bound - ||p(R)||`` and is not judged here:
    verify-polynomial's ``poly-bound`` check records a negative slack
    against its tolerance.
    """
    op.v_contraction_norm  # raises ValidationError unless V is a contraction
    sup = p.boundary_sup()
    if sup > 1.0 + CONTRACTION_TOL:
        raise ValidationError(
            f"polynomial sup-norm on the disk is {sup:.12g} > 1; "
            "normalize before applying the bound"
        )
    order = 2 * op.dim
    if direct is None:
        direct = p.at_matrix(op.matrix)
    elif np.shape(direct) != (order, order):
        raise ValidationError(
            f"direct evaluation must have shape {(order, order)}, got {np.shape(direct)}"
        )
    applied_norm = operator_norm(direct)
    bound = foguel_norm_closed(tilde_deriv_bound(p) * op.symbol_norm)
    return PolyBoundReport(
        applied_norm=applied_norm, bound=bound, slack=bound - applied_norm, sup_norm=sup
    )
