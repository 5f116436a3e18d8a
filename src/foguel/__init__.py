"""Verified numerics for Foguel-type block operators.

Constructs ``R = [[V*, T], [0, V]]`` over finite-dimensional complex spaces
and checks, to controlled tolerance, the identities that govern it: the
closed-form norm, the spectral correspondence between ``R R*`` and ``T T*``,
explicit resolvent and inverse blocks, the dilation/compression norm bound
for contraction slots, the block power/polynomial calculus, and the
Schur-complement positivity characterization of the norm.
"""

from .dilation import (
    Polynomial,
    foguel_power,
    generalized_foguel,
    halmos_dilation,
    lift_foguel,
    poly_apply,
    tilde_deriv_bound,
    verify_poly_bound,
)
from .errors import (
    FoguelError,
    InternalConsistencyError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from .linalg import (
    Tolerance,
    multiset_match,
    operator_norm,
    psd_sqrt,
    solve_inverse,
)
from .models import (
    SeededGenerator,
    build_foguel,
    embed_corner,
    ginibre,
    haar_unitary,
    random_contraction,
    truncated_shift,
)
from .schur import (
    foguel_positivity,
    neumann_eval,
    norm_by_bisection,
    scalar_criterion,
)
from .spectral import (
    forward_map,
    foguel_gram_inverse,
    foguel_inverse,
    foguel_norm_closed,
    gram_minus_identity_inverse,
    inverse_branches,
    resolvent_blocks,
    symbol_norm_from_foguel,
    verify_spectral_mapping,
)

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "FoguelError",
    "InternalConsistencyError",
    "NotPositiveSemidefiniteError",
    "Polynomial",
    "SeededGenerator",
    "SingularMatrixError",
    "Tolerance",
    "ValidationError",
    "build_foguel",
    "embed_corner",
    "emit_report",
    "foguel_gram_inverse",
    "foguel_inverse",
    "foguel_norm_closed",
    "foguel_positivity",
    "foguel_power",
    "forward_map",
    "generalized_foguel",
    "ginibre",
    "gram_minus_identity_inverse",
    "haar_unitary",
    "halmos_dilation",
    "inverse_branches",
    "lift_foguel",
    "multiset_match",
    "neumann_eval",
    "norm_by_bisection",
    "operator_norm",
    "poly_apply",
    "psd_sqrt",
    "random_contraction",
    "resolvent_blocks",
    "run_experiment",
    "scalar_criterion",
    "solve_inverse",
    "symbol_norm_from_foguel",
    "tilde_deriv_bound",
    "truncated_shift",
    "verify_poly_bound",
    "verify_spectral_mapping",
]
