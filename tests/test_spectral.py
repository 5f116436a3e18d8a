"""Spectral mapping, norm formula, resolvent and inverse witness tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foguel import (
    SeededGenerator,
    SingularMatrixError,
    Tolerance,
    ValidationError,
    build_foguel,
    foguel_gram_inverse,
    foguel_inverse,
    foguel_norm_closed,
    forward_map,
    generalized_foguel,
    ginibre,
    gram_minus_identity_inverse,
    haar_unitary,
    inverse_branches,
    operator_norm,
    resolvent_blocks,
    solve_inverse,
    symbol_norm_from_foguel,
    truncated_shift,
    verify_spectral_mapping,
)
from foguel.linalg import adjoint


def _random_pair(n, seed):
    gen = SeededGenerator(seed)
    return haar_unitary(n, gen), ginibre(n, gen)


# --- scalar maps -------------------------------------------------------------


def test_forward_map_values():
    assert forward_map(1.0) == 0.0
    assert forward_map(2.0) == pytest.approx(0.5, abs=1e-15)
    assert forward_map(4.0) == pytest.approx(2.25, abs=1e-15)
    assert forward_map(0.25) == pytest.approx(2.25, abs=1e-15)


def test_forward_map_domain():
    with pytest.raises(ValidationError):
        forward_map(0.0)
    with pytest.raises(ValidationError):
        forward_map(-2.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(deadline=None)
def test_forward_map_reciprocal_symmetry(lam):
    assert forward_map(lam) == pytest.approx(forward_map(1.0 / lam), abs=1e-12, rel=1e-12)


def test_inverse_branches_values():
    assert inverse_branches(0.0) == (1.0, 1.0)
    # quadratic-formula oracle: roots of x^2 - (mu + 2) x + 1
    for mu in (2.25, 1.0):
        lo, hi = np.sort(np.roots([1.0, -(mu + 2.0), 1.0]).real)
        lam_minus, lam_plus = inverse_branches(mu)
        assert lam_minus == pytest.approx(lo, abs=1e-12)
        assert lam_plus == pytest.approx(hi, abs=1e-12)
    assert inverse_branches(2.25) == pytest.approx((0.25, 4.0), abs=1e-12)


def test_inverse_branches_domain():
    with pytest.raises(ValidationError):
        inverse_branches(-1e-9)


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(deadline=None)
def test_inverse_branches_properties(mu):
    lam_minus, lam_plus = inverse_branches(mu)
    assert 0.0 < lam_minus <= 1.0 <= lam_plus
    assert abs(lam_minus * lam_plus - 1.0) <= 1e-12
    assert abs(forward_map(lam_plus) - mu) <= 1e-10 * (1.0 + mu)
    assert abs(forward_map(lam_minus) - mu) <= 1e-10 * (1.0 + mu)


def test_foguel_norm_closed_values():
    assert foguel_norm_closed(0.0) == 1.0
    assert foguel_norm_closed(1.5) == pytest.approx(2.0, abs=1e-15)
    golden = foguel_norm_closed(1.0)
    assert golden == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)
    # cross-check against the actual operator norm of the scalar case
    assert golden == pytest.approx(operator_norm([[1, 1], [0, 1]]), abs=1e-12)
    with pytest.raises(ValidationError):
        foguel_norm_closed(-0.1)


@given(st.floats(min_value=0.0, max_value=100.0))
@settings(deadline=None)
def test_foguel_norm_closed_algebra(t):
    phi = foguel_norm_closed(t)
    assert phi >= 1.0
    assert abs(phi * phi - t * phi - 1.0) <= 1e-12 * (1.0 + phi * phi)
    # the squared norm is the larger branch over the squared symbol norm
    _, lam_plus = inverse_branches(t * t)
    assert abs(phi * phi - lam_plus) <= 1e-12 * (1.0 + lam_plus)


def test_foguel_norm_closed_increasing():
    grid = np.linspace(0.0, 50.0, 200)
    values = [foguel_norm_closed(t) for t in grid]
    assert np.all(np.diff(values) > 0)


def test_symbol_norm_from_foguel_values():
    assert symbol_norm_from_foguel(1.0) == 0.0
    assert symbol_norm_from_foguel(2.0) == pytest.approx(1.5, abs=1e-15)
    assert symbol_norm_from_foguel(foguel_norm_closed(1.0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        symbol_norm_from_foguel(0.999)


@given(st.floats(min_value=0.0, max_value=100.0))
@settings(deadline=None)
def test_norm_maps_are_inverse(t):
    assert symbol_norm_from_foguel(foguel_norm_closed(t)) == pytest.approx(
        t, abs=1e-12, rel=1e-12
    )


# --- spectral mapping --------------------------------------------------------


def test_spectral_mapping_scalar_fixture():
    op = build_foguel([[1]], [[1]])
    report = verify_spectral_mapping(op, Tolerance(atol=1e-10))
    expected = np.sort(np.roots([1.0, -3.0, 1.0]).real)
    np.testing.assert_allclose(report.gram_spectrum, expected, atol=1e-10)
    assert report.matched
    assert report.max_deviation <= 1e-10


def test_spectral_mapping_zero_symbol():
    v = haar_unitary(4, SeededGenerator(17))
    op = build_foguel(v, np.zeros((4, 4)))
    report = verify_spectral_mapping(op, Tolerance(atol=1e-12))
    np.testing.assert_allclose(report.predicted_spectrum, np.ones(8), atol=1e-15)
    assert report.matched


def test_spectral_mapping_random():
    v, t = _random_pair(16, seed=99)
    op = build_foguel(v, t)
    report = verify_spectral_mapping(op, Tolerance(atol=1e-8))
    assert report.matched
    assert report.max_deviation <= 1e-8
    # independent oracle: eigenvalues of the directly assembled Gram matrix
    direct = np.linalg.eigvalsh(op.matrix @ adjoint(op.matrix))
    np.testing.assert_allclose(
        np.sort(direct), report.predicted_spectrum, atol=1e-8
    )


def test_spectral_mapping_repeated_eigenvalues():
    # scalar multiple of a unitary: T T* = c^2 I, one mu with multiplicity n
    gen = SeededGenerator(3817)
    v = haar_unitary(4, gen)
    t = 0.7 * haar_unitary(4, gen)
    report = verify_spectral_mapping(build_foguel(v, t), Tolerance(atol=1e-10))
    assert report.matched
    lam_minus, lam_plus = inverse_branches(0.49)
    np.testing.assert_allclose(
        report.predicted_spectrum, [lam_minus] * 4 + [lam_plus] * 4, atol=1e-12
    )


def test_spectral_mapping_rank_deficient_symbol():
    # each zero singular value contributes the double point (1, 1)
    v = haar_unitary(4, SeededGenerator(3817))
    t = np.diag([1.5, 0.0, 0.0, 0.0]).astype(complex)
    report = verify_spectral_mapping(build_foguel(v, t), Tolerance(atol=1e-10))
    assert report.matched
    lam_minus, lam_plus = inverse_branches(2.25)
    np.testing.assert_allclose(
        report.predicted_spectrum,
        [lam_minus] + [1.0] * 6 + [lam_plus],
        atol=1e-12,
    )


def test_spectral_mapping_rejects_shift():
    op = generalized_foguel(truncated_shift(3), np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="unitary"):
        verify_spectral_mapping(op, Tolerance(atol=1e-8))


# --- resolvent blocks --------------------------------------------------------


def test_resolvent_scalar_fixture():
    op = build_foguel([[1]], [[1]])
    blocks = resolvent_blocks(op, 4.0)
    # direct 2x2 inversion oracle: [[-2, 1], [1, -3]]^{-1}
    oracle = np.linalg.inv(np.array([[-2.0, 1.0], [1.0, -3.0]]))
    assert abs(blocks.a[0, 0] - oracle[0, 0]) <= 1e-14
    assert abs(blocks.x[0, 0] - oracle[0, 1]) <= 1e-14
    assert abs(blocks.b[0, 0] - oracle[1, 1]) <= 1e-14
    np.testing.assert_allclose(blocks.solution, oracle, atol=1e-14)
    assert blocks.residual <= 1e-14


def test_resolvent_scalar_offdiagonal_relation():
    op = build_foguel([[1]], [[1]])
    blocks = resolvent_blocks(op, 4.0)
    # T* A = (lam - 1) V* X*, scalar arithmetic: -0.6 = 3 * (-0.2)
    assert abs(blocks.a[0, 0] - 3.0 * blocks.x[0, 0]) <= 1e-14


def test_resolvent_random_matches_brute_force():
    v, t = _random_pair(8, seed=5)
    op = build_foguel(v, t)
    mu_max = float(np.max(np.linalg.eigvalsh(t @ adjoint(t))))
    _, lam_plus = inverse_branches(mu_max)
    lam = lam_plus + 0.5
    blocks = resolvent_blocks(op, lam)
    assert blocks.residual <= 1e-8
    brute = solve_inverse(op.gram - lam * np.eye(16))
    assert operator_norm(blocks.solution - brute) <= 1e-10
    eq_res = operator_norm(
        adjoint(t) @ blocks.a - (lam - 1.0) * adjoint(v) @ adjoint(blocks.x)
    )
    assert eq_res <= 1e-9


def test_resolvent_small_branch():
    # lam inside (0, 1) maps to the same mu as its reciprocal and works too
    v, t = _random_pair(6, seed=3818)
    op = build_foguel(v, t)
    mu_max = float(np.max(np.linalg.eigvalsh(t @ adjoint(t))))
    lam_minus, _ = inverse_branches(mu_max + 2.0)
    assert 0.0 < lam_minus < 1.0
    blocks = resolvent_blocks(op, lam_minus)
    assert blocks.residual <= 1e-8
    brute = solve_inverse(op.gram - lam_minus * np.eye(12))
    assert operator_norm(blocks.solution - brute) <= 1e-9


def test_resolvent_solution_is_hermitian():
    v, t = _random_pair(6, seed=31)
    op = build_foguel(v, t)
    mu_max = float(np.max(np.linalg.eigvalsh(t @ adjoint(t))))
    blocks = resolvent_blocks(op, inverse_branches(mu_max)[1] + 1.0)
    s = blocks.solution
    assert operator_norm(s - adjoint(s)) <= 1e-10


def test_resolvent_exclusion_band():
    op = build_foguel([[1]], [[1]])
    with pytest.raises(ValidationError, match="excluded"):
        resolvent_blocks(op, 1.0 + 1e-8)
    with pytest.raises(ValidationError):
        resolvent_blocks(op, 1e-8)
    with pytest.raises(ValidationError):
        resolvent_blocks(op, -2.0)


def test_resolvent_spectral_gap_guard():
    op = build_foguel([[1]], [[1]])
    # spec(T T*) = {1}; lam with forward_map(lam) = 1 sits exactly on it
    _, lam_plus = inverse_branches(1.0)
    with pytest.raises(SingularMatrixError):
        resolvent_blocks(op, lam_plus)


# --- inverse witnesses -------------------------------------------------------


def test_foguel_inverse_scalar():
    op = build_foguel([[1]], [[1]])
    m = foguel_inverse(op)
    np.testing.assert_array_equal(m.real, [[1, -1], [0, 1]])
    np.testing.assert_allclose(op.matrix @ m, np.eye(2), atol=1e-15)


def test_foguel_inverse_zero_symbol_is_adjoint():
    v = haar_unitary(3, SeededGenerator(12))
    op = build_foguel(v, np.zeros((3, 3)))
    np.testing.assert_allclose(foguel_inverse(op), adjoint(op.matrix), atol=1e-14)


def test_foguel_inverse_random_residuals():
    v, t = _random_pair(8, seed=71)
    op = build_foguel(v, t)
    t_norm = operator_norm(t)
    eye = np.eye(16)
    m = foguel_inverse(op)
    assert operator_norm(op.matrix @ m - eye) <= 1e-10 * (1.0 + t_norm)
    assert operator_norm(m @ op.matrix - eye) <= 1e-10 * (1.0 + t_norm)
    # independent oracle: LU-based inverse of the assembled block matrix
    assert operator_norm(m - solve_inverse(op.matrix)) <= 1e-10 * (1.0 + t_norm)

    g_inv = foguel_gram_inverse(op)
    assert operator_norm(op.gram @ g_inv - eye) <= 1e-9 * (1.0 + t_norm) ** 2


def test_foguel_inverse_requires_unitary():
    op = generalized_foguel(truncated_shift(2), np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="unitary"):
        foguel_inverse(op)


def test_gram_minus_identity_scalar_fixture():
    op = build_foguel([[1]], [[2]])
    w = gram_minus_identity_inverse(op)
    np.testing.assert_allclose(w.real, [[0.0, 0.5], [0.5, -1.0]], atol=1e-15)
    product = (op.gram - np.eye(2)) @ w
    np.testing.assert_allclose(product, np.eye(2), atol=1e-14)


def test_gram_minus_identity_identity_symbol():
    v = haar_unitary(4, SeededGenerator(51))
    op = build_foguel(v, np.eye(4))
    w = gram_minus_identity_inverse(op)
    np.testing.assert_allclose(w[:4, 4:], adjoint(v), atol=1e-12)
    assert operator_norm((op.gram - np.eye(8)) @ w - np.eye(8)) <= 1e-10


def test_gram_minus_identity_random():
    v, t = _random_pair(8, seed=77)
    op = build_foguel(v, t)
    w = gram_minus_identity_inverse(op)
    s = np.linalg.svd(t, compute_uv=False)
    cond = float(s[0] / s[-1])
    residual = operator_norm((op.gram - np.eye(16)) @ w - np.eye(16))
    assert residual <= 1e-9 * cond**2


def test_gram_minus_identity_rejects_singular_symbol():
    v = haar_unitary(3, SeededGenerator(4))
    t = np.diag([1.0, 1.0, 0.0]).astype(complex)  # rank deficient
    op = build_foguel(v, t)
    with pytest.raises(SingularMatrixError):
        gram_minus_identity_inverse(op)
