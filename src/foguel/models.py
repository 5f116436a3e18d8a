"""Operator factories and the Foguel block operator they feed.

Provides seeded samplers for Haar unitaries, truncated unilateral shifts,
random contractions and Gaussian symbols, plus :class:`FoguelOperator`,
the validated pair ``(V, T)`` carrying the block matrix
``R = [[V*, T], [0, V]]`` and its Gram operator ``R R*``.

In finite dimension every isometry is unitary, so exact-identity
experiments draw Haar unitaries for the ``V`` slot; the unilateral shift is
modeled by :func:`truncated_shift`, whose rank-one isometry defect is
recorded rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import (
    adjoint,
    as_matrix,
    block2,
    hermitian_eigs,
    hermitian_eigvals,
    norm_unless_below,
    operator_norm,
    require_contraction,
    require_index,
    require_pair,
)

#: Isometry defect :func:`build_foguel` accepts.
ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible random source keyed by ``(seed, stream_id)``.

    Identical key pairs replay identical draw sequences; distinct stream ids
    give statistically independent streams, so per-trial substreams never
    need coordination.
    """

    seed: int
    stream_id: int = 0

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng([int(self.seed), int(self.stream_id)])

    def substream(self, stream_id: int) -> "SeededGenerator":
        return SeededGenerator(self.seed, stream_id)

    def complex_gaussian(self, rows: int, cols: int | None = None) -> np.ndarray:
        """Matrix of iid standard complex Gaussians (variance 1 per entry)."""
        cols = rows if cols is None else cols
        re = self.rng.standard_normal((rows, cols))
        im = self.rng.standard_normal((rows, cols))
        return (re + 1j * im) / np.sqrt(2.0)

    def uniform(self, low: float, high: float) -> float:
        return float(self.rng.uniform(low, high))


def ginibre(n: int, gen: SeededGenerator) -> np.ndarray:
    """n x n matrix with iid standard complex Gaussian entries."""
    return gen.complex_gaussian(require_index(n, "dimension", 1))


def haar_unitary(n: int, gen: SeededGenerator) -> np.ndarray:
    """Haar-distributed n x n unitary.

    Orthonormalizes a Ginibre sample by QR and corrects the phase ambiguity
    with the diagonal of R, which makes the factorization unique and the
    distribution exactly Haar.
    """
    z = ginibre(n, gen)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0  # zero diagonal has probability zero; keep the phase fix total
    return q * (d / np.abs(d))


def truncated_shift(n: int) -> np.ndarray:
    """Finite section of the unilateral shift: e_i -> e_{i+1}, e_n -> 0.

    ``S* S = diag(1, ..., 1, 0)`` exactly, so the isometry defect is rank one
    and has norm one for every n.
    """
    return np.eye(require_index(n, "dimension", 1), k=-1, dtype=np.complex128)


def random_contraction(n: int, gen: SeededGenerator) -> np.ndarray:
    """Random contraction built by clipping Ginibre singular values at 1.

    Clipping (rather than rescaling by the norm) produces contractions whose
    norm is exactly 1 most of the time, which stresses norm inequalities at
    their boundary.
    """
    z = ginibre(n, gen)
    u, s, vh = np.linalg.svd(z)
    return (u * np.minimum(s, 1.0)) @ vh


@dataclass(frozen=True, eq=False)
class FoguelOperator:
    """Pair ``(V, T)`` with cached block assembly and spectral data.

    :func:`build_foguel` and ``generalized_foguel`` validate the pair; the
    constructor does not.  ``matrix`` is ``R = [[V*, T], [0, V]]`` and
    ``gram`` the symmetrized product ``matrix @ matrix*``: the direct
    route, which shares no block formula with the Schur route.

    The remaining cached properties do not depend on a positivity level, so
    a norm bisection computes each once per operator: ``gram_eigvals`` (the
    only 2n x 2n eigensolve), ``symbol_gram_eigvals`` (``spec(T T*)``, the
    one source of it and of ``symbol_norm = ||T||``), ``v_contraction_norm``,
    the eigenpairs ``vv_eigs`` of ``V V*``, the Schur route's ``gram_corner``
    and ``coupling``, and ``isometry_defect`` and ``isometry_excess``, both
    read from one ``V* V - I``.  Every property is computed on first access
    from ``v`` and ``t``, which must not be mutated afterwards; the cached
    arrays other than ``matrix`` and ``gram`` are read-only.
    """

    v: np.ndarray
    t: np.ndarray

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @cached_property
    def _defect_matrix(self) -> np.ndarray:
        """``V* V - I``, formed once for ``isometry_defect`` and ``isometry_excess``."""
        return _read_only(adjoint(self.v) @ self.v - np.eye(self.dim))

    @cached_property
    def isometry_defect(self) -> float:
        """``||V* V - I||``, an order-n eigensolve run only where the defect is read."""
        return operator_norm(self._defect_matrix)

    @cached_property
    def isometry_excess(self) -> float | None:
        """``||V* V - I||`` when it exceeds ``ISOMETRY_TOL``, else None.

        :func:`~foguel.linalg.norm_unless_below` answers None without an
        eigensolve whenever the defect is certainly within the tolerance.
        """
        defect = norm_unless_below(self._defect_matrix, ISOMETRY_TOL)
        return defect if defect is not None and defect > ISOMETRY_TOL else None

    @cached_property
    def matrix(self) -> np.ndarray:
        return block2(adjoint(self.v), self.t, None, self.v)

    @cached_property
    def gram_corner(self) -> np.ndarray:
        """``V* V + T T*``, the upper-left block of ``R R*`` (``I + T T*`` for an isometry).

        Only the Schur route reads it; ``gram`` never does.
        """
        return _read_only(adjoint(self.v) @ self.v + self.t @ adjoint(self.t))

    @cached_property
    def gram(self) -> np.ndarray:
        """``R R*`` as the product ``matrix @ matrix*``, made exactly Hermitian."""
        g = self.matrix @ adjoint(self.matrix)
        return (g + adjoint(g)) / 2.0

    @cached_property
    def gram_eigvals(self) -> np.ndarray:
        """Ascending spectrum of ``gram``, from a 2n x 2n eigensolve of ``gram`` itself."""
        return _read_only(hermitian_eigvals(self.gram))

    @cached_property
    def symbol_gram_eigvals(self) -> np.ndarray:
        """Ascending ``spec(T T*)`` from one n x n eigensolve, clipped at 0; raises unless PSD."""
        tt = self.t @ adjoint(self.t)
        w = hermitian_eigvals((tt + adjoint(tt)) / 2.0)
        if float(w[0]) < -1e-10 * (1.0 + abs(float(w[-1]))):
            raise ValidationError(f"symbol Gram has eigenvalue {w[0]:.3e} < 0; not PSD")
        return _read_only(np.clip(w, 0.0, None))

    @cached_property
    def symbol_norm(self) -> float:
        """``||T||``, the square root of the top of ``symbol_gram_eigvals``."""
        return float(np.sqrt(self.symbol_gram_eigvals[-1]))

    @cached_property
    def v_contraction_norm(self) -> float:
        """``||V||``; raises :class:`ValidationError` unless ``V`` is a contraction."""
        return require_contraction(self.v, "V")

    @cached_property
    def vv_eigs(self) -> tuple:
        """Eigenpairs ``(w, U)`` of ``V V* = U diag(w) U*``, ``w`` ascending."""
        vv = self.v @ adjoint(self.v)
        return tuple(_read_only(a) for a in hermitian_eigs((vv + adjoint(vv)) / 2.0))

    @cached_property
    def coupling(self) -> np.ndarray:
        """``T V* U``: the Schur coupling ``T V*`` in the eigenbasis ``U`` of ``V V*``."""
        return _read_only(self.t @ adjoint(self.v) @ self.vv_eigs[1])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_foguel(v, t) -> FoguelOperator:
    """Construct the :class:`FoguelOperator` of a pair with an isometry slot.

    The defect ``||V* V - I||`` must not exceed ``ISOMETRY_TOL``; a
    contraction slot such as the truncated shift, where the defect is part
    of the story and ``isometry_defect`` reports it, goes through
    :func:`~foguel.dilation.generalized_foguel` instead.
    """
    v, t = require_pair(v, t, ("V", "T"))
    op = FoguelOperator(v=v, t=t)
    if op.isometry_excess is not None:
        raise ValidationError(
            f"V is not an isometry: defect {op.isometry_excess:.3e} exceeds {ISOMETRY_TOL:.1e}"
        )
    return op


def embed_corner(t, big_dim: int) -> np.ndarray:
    """Place ``t`` in the leading corner of a ``big_dim`` x ``big_dim`` zero matrix.

    The embedding preserves the operator norm exactly.
    """
    t = as_matrix(t)
    big_dim = require_index(big_dim, "dimension", 1)
    k_rows, k_cols = t.shape
    if k_rows > big_dim or k_cols > big_dim:
        raise ValidationError(
            f"cannot embed shape {t.shape} into dimension {big_dim}"
        )
    out = np.zeros((big_dim, big_dim), dtype=np.complex128)
    out[:k_rows, :k_cols] = t
    return out
