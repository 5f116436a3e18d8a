"""The names ``foguel`` exports: each resolves, and removed ones stay gone."""

import foguel

REMOVED = (
    "BoundViolationError",
    "DilationLift",
    "ExperimentReport",
    "FoguelOperator",
    "MultisetComparison",
    "NormBisection",
    "PolyBoundReport",
    "PositivityCertificate",
    "ResolventBlocks",
    "SpectralMapReport",
    "TrialRecord",
    "adjoint",
    "compress_generalized",
    "hermitian_eigs",
    "hermitian_eigvals",
    "power_offdiag",
    "schur_complement",
    "write_report",
)


def test_every_exported_name_resolves():
    assert [name for name in foguel.__all__ if not hasattr(foguel, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from foguel import *", namespace)
    assert set(foguel.__all__) <= set(namespace)


def test_removed_names_are_absent():
    assert [name for name in REMOVED if name in foguel.__all__ or hasattr(foguel, name)] == []
