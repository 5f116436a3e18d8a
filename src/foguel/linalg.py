"""Dense complex matrix kernel used by every other module.

Everything here reduces to a Hermitian eigendecomposition so that one
well-tested LAPACK kernel (``numpy.linalg.eigh``) backs the operator norm,
the PSD square root and all exact positivity decisions; the Cholesky
certificates below decide a positivity question without an eigensolve
when its answer is certain, and at large orders a gap-certified Lanczos
iteration replaces the operator norm's eigensolve.  All public functions
are pure: inputs are never mutated and no module state exists, so
concurrent use is safe.

The functions ``foguel`` exports (``operator_norm``, ``psd_sqrt``,
``solve_inverse``, ``multiset_match``) validate their array arguments.
The kernels (``hermitian_eigs``, ``hermitian_eigvals``, ``psd_verdict``,
the norm certificates) trust theirs: their callers pass the arrays they
have already validated or built, and an exactly Hermitian matrix where
one is required.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)

#: Maximum entrywise asymmetry accepted when validating a Hermitian matrix.
HERMITIAN_ATOL = 1e-12

#: Eigenvalues of a nominally PSD matrix may dip this far below zero before
#: the input is rejected; anything in [PSD_FLOOR, 0) is clamped to 0.
PSD_FLOOR = -1e-10

#: Reciprocal condition estimate below which a solve is refused.
RCOND_FLOOR = 1e-12

#: Operator norm excess tolerated when validating a contraction.
CONTRACTION_TOL = 1e-10

#: The constant ``c`` of :func:`psd_verdict`'s margin ``c m (m + 1) eps (||h||_F + |shift|)``.
PSD_VERDICT_MARGIN = 4.0

#: Order of ``m* m`` from which :func:`operator_norm` tries the certified
#: Lanczos path before ``eigvalsh`` (measured by ``tools/norm_crossover.py``).
LANCZOS_MIN_ORDER = 1024

#: Lanczos steps after which :func:`operator_norm` gives up and runs
#: ``eigvalsh`` (measured by ``tools/norm_crossover.py``).
LANCZOS_MAX_STEPS = 100

#: Seed of the Lanczos start vector; fixed, so it is never a trial's draw.
LANCZOS_SEED = 20121

#: Largest relative width of the enclosure a Lanczos value is returned with.
LANCZOS_ENCLOSURE_RTOL = 1e-11

#: Rows per block when the Lanczos certificate writes its matrix.
_CERTIFICATE_ROWS = 128

_EPS = float(np.finfo(np.float64).eps)


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array and validate its shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"matrix must be at least 1x1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def require_pair(a, t, names: tuple) -> tuple:
    """Validate two square matrices of the same shape; ``names`` label them in errors."""
    a = require_square(a, names[0])
    t = require_square(t, names[1])
    if a.shape != t.shape:
        raise ValidationError(
            f"{names[0]} and {names[1]} must have matching shapes, "
            f"got {a.shape} and {t.shape}"
        )
    return a, t


def require_index(n, what: str, minimum: int) -> int:
    """``operator.index(n)``, at least ``minimum``; a bool, float or string raises :class:`ValidationError`."""
    try:
        index = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        index = None
    if index is None:
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    if index < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {index}")
    return index


def block2(ul, ur, ll, lr) -> np.ndarray:
    """The 2n x 2n matrix ``[[ul, ur], [ll, lr]]`` of n x n blocks; ``None`` is a zero block.

    Slice assignment into a zero matrix is several times faster than
    ``np.block`` at the sizes the experiments run.
    """
    n = next(b for b in (ul, ur, ll, lr) if b is not None).shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for block, i, j in ((ul, 0, 0), (ur, 0, n), (ll, n, 0), (lr, n, n)):
        if block is not None:
            out[i : i + n, j : j + n] = block
    return out


def require_hermitian(m) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    The returned matrix is ``(m + m*)/2``, which is exactly Hermitian in
    floating point; validation happens before symmetrization so that a
    genuinely asymmetric input is rejected, naming its worst entry, when
    that exceeds ``HERMITIAN_ATOL``.
    """
    m = require_square(m, "hermitian matrix")
    asym = float(np.max(np.abs(m - adjoint(m))))
    if asym > HERMITIAN_ATOL:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITIAN_ATOL:.1e}"
        )
    return (m + adjoint(m)) / 2.0


def hermitian_eigs(h: np.ndarray):
    """Eigendecomposition of an exactly Hermitian ndarray ``h``, as :func:`psd_verdict` takes.

    ``h`` is not validated: callers symmetrize a product as ``(m + m*)/2``
    before passing it.

    Returns
    -------
    w : ndarray of float
        Eigenvalues in ascending order.
    u : ndarray of complex
        Orthonormal eigenvectors, column ``u[:, i]`` belonging to ``w[i]``,
        so that ``h = u @ diag(w) @ u*``.
    """
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SingularMatrixError(f"eigendecomposition did not converge: {exc}") from exc
    return w, u


def hermitian_eigvals(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian ndarray ``h``; no eigenvectors, no checks."""
    return np.linalg.eigvalsh(h)


def operator_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value of ``m``.

    Computed as ``sqrt(lambda_max(g))`` for ``g = m* m`` made exactly
    Hermitian, so the result shares the Hermitian eigensolver with the rest
    of the kernel.  From order ``LANCZOS_MIN_ORDER`` on,
    :func:`_lanczos_top_eigenvalue` tries first and ``eigvalsh`` runs on the
    same ``g`` only when it certifies nothing.
    """
    m = as_matrix(m)
    g = adjoint(m) @ m
    g = (g + adjoint(g)) / 2.0
    if g.shape[0] >= LANCZOS_MIN_ORDER:
        top = _lanczos_top_eigenvalue(g)
        if top.value is not None:
            return float(np.sqrt(max(top.value, 0.0)))
    w = np.linalg.eigvalsh(g)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


class _TopEigenvalue(NamedTuple):
    """Outcome of :func:`_lanczos_top_eigenvalue`.

    ``value`` is the certified ``lambda_max``, or None when the caller must
    run its eigensolve; ``steps`` counts Lanczos steps, ``width`` is the
    relative width of the enclosure (inf when none was formed) and
    ``reason`` reads ``certified``, ``non-finite``, ``breakdown``,
    ``budget``, ``no-gap``, ``too-wide`` or ``not-definite``.
    """

    value: float | None
    steps: int
    width: float
    reason: str


def _lanczos_start(n: int) -> np.ndarray:
    """The unit complex Gaussian start vector of order ``n``, drawn from ``LANCZOS_SEED``."""
    z = np.random.default_rng(LANCZOS_SEED).standard_normal((2, n))
    v = z[0] + 1j * z[1]
    return v / np.linalg.norm(v)


def _lanczos_top_eigenvalue(g: np.ndarray) -> _TopEigenvalue:
    """``lambda_max(g)`` of an exactly Hermitian PSD ``g`` by Lanczos, with a gap certificate.

    Full-reorthogonalization Lanczos runs from :func:`_lanczos_start` until
    the top Ritz residual estimate is at most ``4 eps theta`` or
    ``LANCZOS_MAX_STEPS`` (or the order) steps are spent.  With ``x`` the
    unit Ritz vector, ``a = x* g x`` and ``s`` the midpoint of the top two
    Ritz values, the value ``a`` is returned only when both hold:

    - ``(s - mu) I - Q g Q`` factors by Cholesky, where ``Q = I - x x*``
      and ``mu`` is :func:`psd_verdict`'s margin.  Then the spectrum of
      ``g`` on the complement of ``x`` lies below ``s``, so by the
      Kato--Temple bound (Parlett, *The Symmetric Eigenvalue Problem*,
      SIAM 1998)
      ``a - rho <= lambda_max(g) <= a + rho + (||g x - a x|| + rho)^2 / (a - s - rho)``
      with ``rho = m eps ||g||_F`` at order ``m`` for the rounding of ``a``,
      of the residual and of ``Q g Q``;
    - the relative width ``(upper - a) / a`` of that enclosure is at most
      ``LANCZOS_ENCLOSURE_RTOL``.

    A breakdown (``beta = 0``), a single Ritz value, a spent budget or a
    non-finite ``g`` certify nothing either.  The factorized matrix is
    written into ``g``'s strict upper triangle and diagonal; the strict
    lower triangle is never written and the diagonal is put back, so an
    ``eigvalsh`` of ``g`` afterwards (which reads the lower triangle) is
    exactly the one it would have been.
    """
    n = g.shape[0]
    fro = float(np.linalg.norm(g))
    if not math.isfinite(fro):
        return _TopEigenvalue(None, 0, math.inf, "non-finite")
    budget = min(LANCZOS_MAX_STEPS, n)
    basis = np.empty((budget, n), dtype=np.complex128)
    alpha, beta = np.zeros(budget), np.zeros(budget)
    v = _lanczos_start(n)
    for k in range(budget):
        basis[k] = v
        done = basis[: k + 1]
        w = g @ v
        c = (done @ w.conj()).conj()  # done* w, without conjugating the basis
        alpha[k] = c[k].real
        w -= c @ done
        w -= (done @ w.conj()).conj() @ done  # reorthogonalize a second time
        beta[k] = np.linalg.norm(w)
        if not beta[k] > 0.0:
            return _TopEigenvalue(None, k + 1, math.inf, "breakdown")
        tri = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta, s = np.linalg.eigh(tri)
        if beta[k] * abs(s[-1, -1]) <= 4.0 * _EPS * theta[-1]:
            break
        v = w / beta[k]
    else:
        return _TopEigenvalue(None, budget, math.inf, "budget")
    if k == 0:
        return _TopEigenvalue(None, 1, math.inf, "no-gap")

    x = s[:, -1] @ done
    x /= np.linalg.norm(x)
    y = g @ x
    a = float(np.vdot(x, y).real)
    residual = float(np.linalg.norm(y - a * x))
    rho = n * _EPS * fro
    gap_mid = 0.5 * (float(theta[-1]) + float(theta[-2]))
    room = a - gap_mid - rho
    width = (rho + (residual + rho) ** 2 / room) / a if a > 0.0 and room > 0.0 else math.inf
    if not width <= LANCZOS_ENCLOSURE_RTOL:
        return _TopEigenvalue(None, k + 1, width, "too-wide")
    mu = _psd_margin(n, fro + abs(gap_mid))
    if mu is None or not _deflation_factors(g, x, y - 0.5 * a * x, gap_mid - mu):
        return _TopEigenvalue(None, k + 1, width, "not-definite")
    return _TopEigenvalue(a, k + 1, width, "certified")


def _deflation_factors(g: np.ndarray, x: np.ndarray, z: np.ndarray, shift: float) -> bool:
    """Whether ``shift I - Q g Q`` factors by Cholesky, for ``Q = I - x x*`` and ``z = g x - (a/2) x``.

    ``Q g Q = g - x z* - z x*``.  The matrix is written into the strict
    upper triangle and the diagonal of the C-contiguous ``g`` as its own
    transpose, so that ``g.T``, whose lower triangle is what the
    factorization reads, holds it; no further order-n array is made.  The
    strict lower triangle of ``g`` is left alone and its diagonal restored.
    """
    n = g.shape[0]
    diagonal = g.ravel()[:: n + 1]
    saved = diagonal.copy()
    xc, zc = x.conj(), z.conj()
    for lo in range(0, n, _CERTIFICATE_ROWS):
        hi = min(lo + _CERTIFICATE_ROWS, n)
        rows = g[lo:hi, lo:]  # a view: from the diagonal block rightwards
        deflated = np.conj(np.outer(z[lo:hi], xc[lo:]) + np.outer(x[lo:hi], zc[lo:]) - rows)
        lower = np.tril(np.ones((hi - lo, hi - lo), dtype=bool), -1)
        deflated[:, : hi - lo][lower] = rows[:, : hi - lo][lower]
        rows[...] = deflated
    diagonal += shift
    try:
        return _cholesky_succeeds(g.T)
    finally:
        diagonal[...] = saved


def _cholesky_succeeds(a) -> bool:
    """True when ``numpy.linalg.cholesky(a)`` succeeds with a finite factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


def norm_certainly_below(m, bound) -> bool:
    """True only when ``operator_norm(m) <= bound`` is certain, decided by one Cholesky.

    ``||m|| <= M`` exactly when ``M^2 I - m m*`` is positive semidefinite.
    The factorization of ``(M^2 - mu) I - m m*``, with ``mu`` the margin
    :func:`psd_verdict` takes at the scale ``||m m*||_F + M^2``, succeeds
    only when ``M^2 I - m m*`` is positive semidefinite: ``mu`` covers the
    rounding of the product and of the factorization.  False decides
    nothing and the caller runs its exact check; it is also the answer when
    the bound is not positive and finite, the scale lies outside
    ``(1e-150, 1e150)`` (so NaN and inf included) or the factor is not
    finite.
    """
    bound = float(bound)
    if not 0.0 < bound < math.inf:
        return False
    gram = m @ adjoint(m)
    square = bound * bound
    mu = _psd_margin(m.shape[0], float(np.linalg.norm(gram)) + square)
    if mu is None:
        return False
    return _cholesky_succeeds((square - mu) * np.eye(m.shape[0]) - gram)


def norm_unless_below(x, limit) -> float | None:
    """``operator_norm(x)``, or None when ``operator_norm(x) <= limit`` is certain without it.

    Certain when ``||x||_F^2 + mu <= limit^2``, with ``mu`` the margin of
    :func:`psd_verdict` at the scale ``||x||_F^2 + limit^2``, or when
    :func:`norm_certainly_below` holds.  The Frobenius test is exact in
    real arithmetic, as ``||x||_2 <= ||x||_F``; at order ``m`` the computed
    ``||x||_F^2`` and the ``operator_norm`` it stands for each carry a
    relative rounding error of about ``m eps``, inside ``mu``.  ``||x||_F^2``
    bounds ``||x x*||_F``, so ``mu`` is at least the certificate's own.  A
    limit of None, NaN, inf or one that is not positive certifies nothing,
    and so does a scale outside ``(1e-150, 1e150)``, where the sum of
    squares may underflow.  A zero ``x`` that is not certified is ``0.0``
    without an eigensolve.
    """
    if limit is not None and 0.0 < limit < math.inf:
        fro_sq = float(np.linalg.norm(x)) ** 2
        mu = _psd_margin(x.shape[0], fro_sq + limit * limit)
        if mu is not None and (fro_sq + mu <= limit * limit or norm_certainly_below(x, limit)):
            return None
    return operator_norm(x) if x.any() else 0.0


def psd_verdict(h, shift) -> bool | None:
    """The verdict ``eigvalsh(h)[0] >= -shift`` for a Hermitian ``h``, by Cholesky; None if unsure.

    ``h`` must already be exactly Hermitian (e.g. ``(m + m*) / 2``).  With
    ``m`` its order and ``mu = 4 m (m + 1) eps (||h||_F + |shift|)``, the
    answer is True when ``h + (shift - mu) I`` factors with a finite
    factor, False when ``h + (shift + mu) I`` does not factor, and None
    otherwise.  For a factored matrix ``A`` (``||A||_2`` at most the scale
    ``||h||_F + |shift|`` plus ``mu``) and ``u = eps / 2``, ``mu`` covers
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, §10.1):

    - the backward error of a successful factorization, ``R* R = A + dA``
      with ``||dA||_2`` about ``m (m + 1) u ||A||_2`` (Thm 10.5), so
      ``lambda_min(A) >= -||dA||_2``;
    - Demmel's condition (Thm 10.7, with ``max_i a_ii <= ||A||_2``): the
      factorization succeeds once ``lambda_min(A)`` exceeds about that same
      amount, so a failure bounds ``lambda_min(A)`` above;
    - the error of the ``lambda_min`` that ``eigvalsh`` computes, and the
      exact verdict compares: a modest multiple of ``m u ||h||_2``, as the
      eigensolver is backward stable (Weyl).

    Each answer needs one factorization bound plus the eigensolver's error
    and the rounding of the shifted diagonal; ``8 m (m + 1) u`` leaves room
    for complex arithmetic.  So True and False are the exact verdict, and
    None leaves it to the caller's eigensolve.  None is also the answer for
    a non-finite ``h`` or ``shift``, and for a scale outside
    ``(1e-150, 1e150)``, where the factorization may underflow or overflow.
    """
    m = h.shape[0]
    mu = _psd_margin(m, float(np.linalg.norm(h)) + abs(float(shift)))
    if mu is None:
        return None

    def shifted(by):
        a = h.copy()  # C-contiguous, so ravel() is a view and [:: m + 1] its diagonal
        a.ravel()[:: m + 1] += by
        return a

    if _cholesky_succeeds(shifted(shift - mu)):
        return True
    if not _cholesky_succeeds(shifted(shift + mu)):
        return False
    return None


def _psd_margin(m: int, scale: float) -> float | None:
    """``PSD_VERDICT_MARGIN m (m + 1) eps scale``, or None for a scale outside ``(1e-150, 1e150)``."""
    if not 1e-150 < scale < 1e150:
        return None
    return PSD_VERDICT_MARGIN * m * (m + 1) * _EPS * scale


def require_contraction(m, name: str = "matrix") -> float:
    """Return ``||m||``; :class:`ValidationError` when it exceeds ``1 + CONTRACTION_TOL``."""
    return refuse_expansion(operator_norm(m), name)


def refuse_expansion(norm: float, name: str) -> float:
    """Return ``norm``, the operator norm of ``name``; :class:`ValidationError` above ``1 + CONTRACTION_TOL``."""
    if norm > 1.0 + CONTRACTION_TOL:
        raise ValidationError(
            f"{name} must be a contraction, got operator norm {norm:.12g} "
            f"> 1 + {CONTRACTION_TOL:.1e}"
        )
    return norm


def psd_sqrt(p) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[PSD_FLOOR, 0)`` are clamped to zero; an eigenvalue below
    ``PSD_FLOOR`` raises :class:`NotPositiveSemidefiniteError` naming it.  The
    result ``s`` is exactly Hermitian and satisfies ``s @ s == p`` up to
    ``1e-9 * (1 + ||p||)``.
    """
    w, u = hermitian_eigs(require_hermitian(p))
    wmin = float(w[0])
    if wmin < PSD_FLOOR:
        raise NotPositiveSemidefiniteError(
            f"matrix is not PSD: min eigenvalue {wmin:.3e} below floor {PSD_FLOOR:.1e}",
            min_eigenvalue=wmin,
        )
    s = (u * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(u)
    return (s + adjoint(s)) / 2.0


def require_conditioned(magnitudes, what: str) -> None:
    """Refuse a matrix whose reciprocal condition number is below ``RCOND_FLOOR``.

    ``magnitudes`` are its singular values, or the moduli of its eigenvalues
    when it is Hermitian; the reciprocal condition number is their
    ``min / max``, and 0.0 when all are zero.  A refusal raises
    :class:`SingularMatrixError` naming ``what`` and carrying that ``rcond``.
    """
    top = float(np.max(magnitudes))
    rcond = float(np.min(magnitudes)) / top if top > 0.0 else 0.0
    if rcond < RCOND_FLOOR:
        raise SingularMatrixError(
            f"{what} is singular to working precision "
            f"(rcond={rcond:.3e} < {RCOND_FLOOR:.1e})",
            rcond=rcond,
        )


def solve_inverse(m) -> np.ndarray:
    """Two-sided inverse of a square matrix.

    Refused by :func:`require_conditioned` on its singular values; callers
    treat that error as "the shift is too close to the spectrum" when
    inverting resolvent-type operators.
    """
    m = require_square(m)
    require_conditioned(np.linalg.svd(m, compute_uv=False), "matrix")
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=np.complex128))


@dataclass(frozen=True)
class Tolerance:
    """A positive, finite absolute tolerance."""

    atol: float

    def __post_init__(self):
        if not 0.0 < self.atol < math.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {self.atol}")


@dataclass(frozen=True)
class MultisetComparison:
    """Outcome of comparing two real multisets after sorting."""

    matched: bool
    max_deviation: float


def multiset_match(a, b, tol: Tolerance) -> MultisetComparison:
    """Compare two real multisets up to tolerance.

    Both inputs are sorted ascending and compared elementwise, which is the
    canonical matching for real spectra.  Element ``i`` matches when
    ``|a_i - b_i| <= tol.atol``.

    Raises
    ------
    ValidationError
        If the lengths differ; a length mismatch signals a multiplicity bug
        upstream, never a numerical issue.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.shape != b.shape:
        raise ValidationError(
            f"multiset length mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    dev = np.abs(a - b)
    return MultisetComparison(
        matched=bool(np.all(dev <= tol.atol)),
        max_deviation=float(dev.max(initial=0.0)),
    )
