"""Exception taxonomy shared by every module in the package."""


class FoguelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FoguelError, ValueError):
    """An input violates a structural or domain precondition.

    Covers dimension mismatches, non-Hermitian input where Hermitian is
    required, isometry/contraction defects beyond tolerance, and scalar
    arguments outside their admissible range.
    """


class SingularMatrixError(FoguelError, ValueError):
    """A matrix is singular or too ill-conditioned for the requested solve.

    Carries the reciprocal condition estimate so callers can report how far
    inside the forbidden region the input landed.
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class NotPositiveSemidefiniteError(FoguelError, ValueError):
    """A matrix expected to be PSD has an eigenvalue below the floor."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InternalConsistencyError(FoguelError, RuntimeError):
    """Two routes to the same quantity disagreed beyond tolerance.

    Signals a defect in this package's block algebra rather than in the
    caller's input; never caught and converted to a failed trial.
    """
