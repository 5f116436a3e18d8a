"""Dilation, compression bound and power/polynomial calculus tests."""

import numpy as np
import pytest

from foguel import (
    Polynomial,
    SeededGenerator,
    ValidationError,
    foguel_norm_closed,
    foguel_power,
    generalized_foguel,
    ginibre,
    haar_unitary,
    halmos_dilation,
    lift_foguel,
    operator_norm,
    poly_apply,
    random_contraction,
    tilde_deriv_bound,
    verify_poly_bound,
)
from foguel.linalg import adjoint


def svd_norm(m):
    """Independent norm oracle: largest singular value via SVD."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def power_offdiag(a, t, n):
    """Reference off-diagonal block ``sum_{j=0}^{n-1} (A*)^j T A^{n-1-j}`` of ``R^n``.

    Runs the recurrence ``D_{k+1} = A* D_k + T A^k`` from ``D_1 = T`` in the
    order the carried power blocks do, so those must match it bit for bit.
    """
    a, t = np.asarray(a, dtype=complex), np.asarray(t, dtype=complex)
    total = t.copy()
    a_pow = np.eye(a.shape[0], dtype=complex)
    for _ in range(n - 1):
        a_pow = a_pow @ a
        total = adjoint(a) @ total + t @ a_pow
    return total


# --- Polynomial --------------------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0 + 0j, 2.0 + 0j)
    assert p.degree == 1


def test_polynomial_evaluation():
    p = Polynomial([1.0, -2.0, 3.0])
    assert p(2.0) == pytest.approx(1 - 4 + 12)
    np.testing.assert_allclose(p.at_matrix(np.eye(2)), 2.0 * np.eye(2), atol=1e-15)


class _CountingMatrix(np.ndarray):
    """An ndarray that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        _CountingMatrix.products += 1
        return super().__rmatmul__(other)


def _horner(p, m):
    """Reference evaluation of ``p`` at ``m`` by Horner's scheme, one product per degree."""
    result = np.zeros_like(m)
    for c in reversed(p.coeffs):
        result = result @ m + c * np.eye(m.shape[0])
    return result


@pytest.mark.parametrize("degree, products", [(0, 0), (1, 0), (2, 1), (8, 4), (32, 10)])
def test_at_matrix_takes_about_two_sqrt_degree_products(monkeypatch, degree, products):
    from foguel import dilation

    gen = SeededGenerator(60 + degree)
    p = Polynomial(gen.complex_gaussian(1, degree + 1)[0])
    m = ginibre(6, gen) / 6.0
    # the validated matrix at_matrix computes with is a counting view of m
    original = dilation.require_square
    monkeypatch.setattr(
        dilation, "require_square", lambda x, *args: original(x, *args).view(_CountingMatrix)
    )
    _CountingMatrix.products = 0
    p.at_matrix(m)
    assert _CountingMatrix.products == products <= 2.0 * np.sqrt(degree)


@pytest.mark.parametrize("degree", [*range(0, 20), 31, 32, 33, 48, 49, 50])
def test_at_matrix_matches_horner_at_every_degree(degree):
    # every chunk layout of Paterson--Stockmeyer: s = isqrt(degree) dividing
    # degree, degree - 1 or neither, and a top chunk of 2 to s + 1 coefficients
    gen = SeededGenerator(100 + degree)
    p = Polynomial(gen.complex_gaussian(1, degree + 1)[0])
    m = ginibre(5, gen) / 5.0
    reference = _horner(p, m)
    error = np.abs(p.at_matrix(m) - reference).max()
    assert error <= 1e-13 * max(1.0, np.abs(reference).max())


def test_polynomial_boundary_sup_monomial():
    assert Polynomial([0.0, 0.0, 1.0]).boundary_sup() == pytest.approx(1.0, abs=1e-12)


# --- dilation ----------------------------------------------------------------


def test_halmos_dilation_scalar_fixture():
    u = halmos_dilation([[0.5]])
    expected = np.array([[0.5, np.sqrt(0.75)], [np.sqrt(0.75), -0.5]])
    np.testing.assert_allclose(u, expected, atol=1e-15)
    np.testing.assert_allclose(adjoint(u) @ u, np.eye(2), atol=1e-15)


def test_halmos_dilation_of_unitary_has_zero_defect():
    a = haar_unitary(3, SeededGenerator(14))
    u = halmos_dilation(a)
    # defect blocks are square roots of eigenvalue-sized noise, so they
    # vanish only to sqrt(eps); the dilation itself stays unitary to eps
    np.testing.assert_allclose(u[:3, 3:], np.zeros((3, 3)), atol=1e-7)
    np.testing.assert_allclose(u[3:, :3], np.zeros((3, 3)), atol=1e-7)
    np.testing.assert_allclose(u[3:, 3:], -adjoint(a), atol=1e-15)
    assert operator_norm(adjoint(u) @ u - np.eye(6)) <= 1e-12


def test_halmos_dilation_of_zero_is_swap():
    u = halmos_dilation(np.zeros((2, 2)))
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_halmos_dilation_unitarity_random():
    gen = SeededGenerator(6)
    for trial in range(100):
        n = 1 + trial % 16
        a = random_contraction(n, gen.substream(trial))
        u = halmos_dilation(a)
        assert operator_norm(adjoint(u) @ u - np.eye(2 * n)) <= 1e-9
        np.testing.assert_array_equal(u[:n, :n], a)


def test_halmos_dilation_rejects_expansion():
    with pytest.raises(ValidationError, match="contraction"):
        halmos_dilation([[1.5]])


# --- lift and compression ----------------------------------------------------


def test_lift_padded_symbol_norm():
    gen = SeededGenerator(33)
    t = ginibre(4, gen)
    lift = lift_foguel(generalized_foguel(random_contraction(4, gen), t))
    assert abs(svd_norm(lift.t) - svd_norm(t)) <= 1e-12


def test_lift_norm_equals_closed_form():
    gen = SeededGenerator(34)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    lift = lift_foguel(generalized_foguel(a, t))
    # W has a unitary slot, so its norm is the closed-form Foguel norm
    assert abs(svd_norm(lift.matrix) - foguel_norm_closed(svd_norm(t))) <= 1e-8


def test_lift_zero_contraction_hand_assembled():
    lift = lift_foguel(generalized_foguel(np.zeros((1, 1)), np.eye(1)))
    expected = np.array(
        [
            [0, 1, 0, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(lift.matrix, expected, atol=1e-15)
    assert lift.isometry_defect <= 1e-12


def test_lift_forms_its_defect_matrix_only_where_the_defect_is_read():
    gen = SeededGenerator(35)
    lift = lift_foguel(generalized_foguel(random_contraction(4, gen), ginibre(4, gen)))
    assert "_defect_matrix" not in vars(lift)
    assert lift.isometry_defect <= 1e-12
    assert "_defect_matrix" in vars(lift)


def test_compress_scalar_fixture():
    op = generalized_foguel([[0.5]], [[1.0]])
    r = op.matrix
    np.testing.assert_allclose(r.real, [[0.5, 1.0], [0.0, 0.5]], atol=1e-15)
    # 2x2 SVD oracle: ||R||^2 is the largest eigenvalue of R R*
    norm = svd_norm(r)
    assert norm == pytest.approx(np.sqrt((1.5 + np.sqrt(2.0)) / 2.0), abs=1e-12)
    assert norm <= operator_norm(lift_foguel(op).matrix) + 1e-10
    assert norm < foguel_norm_closed(1.0)


def test_compress_unitary_slot_attains_equality():
    gen = SeededGenerator(35)
    v = haar_unitary(4, gen)
    t = ginibre(4, gen)
    op = generalized_foguel(v, t)
    r_norm = svd_norm(op.matrix)
    assert abs(r_norm - operator_norm(lift_foguel(op).matrix)) <= 1e-8
    assert abs(r_norm - foguel_norm_closed(svd_norm(t))) <= 1e-8


def test_compress_zero_symbol():
    a = random_contraction(3, SeededGenerator(36))
    t = np.zeros((3, 3))
    op = generalized_foguel(a, t)
    r_norm = svd_norm(op.matrix)
    assert r_norm <= operator_norm(lift_foguel(op).matrix) + 1e-10
    assert r_norm <= 1.0 + 1e-12 <= foguel_norm_closed(0.0) + 1e-12


def test_compress_bound_random_contractions():
    gen = SeededGenerator(37)
    for trial in range(100):
        n = 1 + trial % 8
        a = random_contraction(n, gen.substream(trial))
        t = ginibre(n, gen.substream(trial + 5000))
        op = generalized_foguel(a, t)
        r = op.matrix
        r_norm = operator_norm(r)
        assert r_norm <= operator_norm(lift_foguel(op).matrix) + 1e-10
        assert r_norm <= foguel_norm_closed(operator_norm(t)) + 1e-8
        assert svd_norm(r) <= foguel_norm_closed(svd_norm(t)) + 1e-8


# --- powers ------------------------------------------------------------------


def test_power_offdiag_single_term():
    t = ginibre(3, SeededGenerator(40))
    a = random_contraction(3, SeededGenerator(41))
    np.testing.assert_array_equal(power_offdiag(a, t, 1), t)


def test_power_offdiag_identity_contraction():
    t = ginibre(3, SeededGenerator(42))
    np.testing.assert_allclose(power_offdiag(np.eye(3), t, 5), 5.0 * t, atol=1e-12)


def test_power_offdiag_scalar_matches_matrix_power():
    d2 = power_offdiag([[1.0]], [[1.0]], 2)
    direct = np.linalg.matrix_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
    assert d2[0, 0] == pytest.approx(direct[0, 1], abs=1e-15)
    assert d2[0, 0] == pytest.approx(2.0)


def test_power_offdiag_recurrence():
    gen = SeededGenerator(43)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    r_norm = operator_norm(generalized_foguel(a, t).matrix)
    for n in range(1, 8):
        lhs = power_offdiag(a, t, n + 1)
        rhs = adjoint(a) @ power_offdiag(a, t, n) + t @ np.linalg.matrix_power(a, n)
        assert operator_norm(lhs - rhs) <= 1e-10 * (1.0 + r_norm) ** n


def test_foguel_power_first_is_operator():
    gen = SeededGenerator(44)
    a = random_contraction(3, gen)
    t = ginibre(3, gen)
    op = generalized_foguel(a, t)
    np.testing.assert_allclose(foguel_power(op, 1), op.matrix, atol=1e-15)


def test_foguel_power_scalar():
    np.testing.assert_allclose(
        foguel_power(generalized_foguel([[1.0]], [[1.0]]), 3).real, [[1, 3], [0, 1]], atol=1e-14
    )


def test_foguel_power_matches_repeated_multiplication():
    gen = SeededGenerator(45)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    op = generalized_foguel(a, t)
    r = op.matrix
    block = foguel_power(op, 5)
    assert operator_norm(block - np.linalg.matrix_power(r, 5)) <= 1e-9


def test_foguel_power_rejects_zero_index():
    with pytest.raises(ValidationError, match="power index must be >= 1, got 0"):
        foguel_power(generalized_foguel(np.eye(2), np.eye(2)), 0)


@pytest.mark.parametrize("index", [2.5, "3", True])
@pytest.mark.parametrize("fn", [foguel_power])
def test_a_non_integral_power_index_is_rejected(fn, index):
    with pytest.raises(ValidationError, match=f"power index must be an integer, got {index!r}"):
        fn(generalized_foguel(np.eye(2), np.eye(2)), index)


def test_numpy_integer_power_indices_are_accepted():
    op = generalized_foguel(np.eye(2), np.eye(2))
    assert np.array_equal(foguel_power(op, np.int64(3)), foguel_power(op, 3))
    assert np.array_equal(foguel_power(op, np.int32(3)), foguel_power(op, 3))


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_carried_power_blocks_are_bit_identical(dim):
    from foguel.dilation import _power_step

    gen = SeededGenerator(54 + dim)
    a, t = random_contraction(dim, gen), ginibre(dim, gen)
    op = generalized_foguel(a, t)
    block = foguel_power(op, 1)
    for n in range(1, 13):
        if n > 1:
            block = _power_step(op, block)
        assert np.array_equal(block[:dim, dim:], power_offdiag(a, t, n))
        assert np.array_equal(block, foguel_power(op, n))


# --- polynomial calculus -----------------------------------------------------


def test_poly_apply_identity_polynomial():
    gen = SeededGenerator(46)
    a = random_contraction(3, gen)
    t = ginibre(3, gen)
    op = generalized_foguel(a, t)
    np.testing.assert_allclose(poly_apply(Polynomial([0.0, 1.0]), op), op.matrix, atol=1e-13)


def test_poly_apply_square_scalar():
    block = poly_apply(Polynomial([0.0, 0.0, 1.0]), generalized_foguel([[1.0]], [[1.0]]))
    np.testing.assert_allclose(block.real, [[1, 2], [0, 1]], atol=1e-14)


def test_poly_apply_affine_linearity():
    gen = SeededGenerator(47)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    op = generalized_foguel(a, t)
    r = op.matrix
    block = poly_apply(Polynomial([1.0, 1.0]), op)
    assert operator_norm(block - (np.eye(8) + r)) <= 1e-12


def test_tilde_deriv_bound_values():
    assert tilde_deriv_bound(Polynomial([0.0] * 5 + [1.0])) == 5.0
    assert tilde_deriv_bound(Polynomial([7.0])) == 0.0
    p = Polynomial([1.0, -2.0, 3.0])
    assert tilde_deriv_bound(p) == pytest.approx(8.0)
    # boundary-sampling oracle for the derivative of the modulus polynomial
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    sampled = np.max(np.abs(2.0 + 6.0 * z))
    assert tilde_deriv_bound(p) == pytest.approx(sampled, rel=1e-10)


def test_verify_poly_bound_power_case():
    gen = SeededGenerator(48)
    v = haar_unitary(3, gen)
    t = ginibre(3, gen)
    op = generalized_foguel(v, t)
    report = verify_poly_bound(Polynomial([0.0, 0.0, 0.0, 1.0]), op)
    # the monomial case is the power estimate ||R^3|| <= Phi(3 ||T||)
    r3 = np.linalg.matrix_power(op.matrix, 3)
    assert report.applied_norm == pytest.approx(svd_norm(r3), abs=1e-10)
    assert report.slack >= -1e-8


def test_verify_poly_bound_equality_fixture():
    report = verify_poly_bound(Polynomial([0.0, 0.0, 1.0]), generalized_foguel([[1.0]], [[1.0]]))
    assert report.applied_norm == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    assert report.bound == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    assert abs(report.slack) <= 1e-10


def test_verify_poly_bound_constant():
    a = random_contraction(2, SeededGenerator(49))
    report = verify_poly_bound(Polynomial([0.5]), generalized_foguel(a, np.zeros((2, 2))))
    assert report.applied_norm == pytest.approx(0.5, abs=1e-12)
    assert report.bound == pytest.approx(1.0, abs=1e-12)


def test_verify_poly_bound_rejects_large_sup():
    a = random_contraction(2, SeededGenerator(50))
    with pytest.raises(ValidationError, match="sup-norm"):
        verify_poly_bound(Polynomial([0.0, 2.0]), generalized_foguel(a, np.eye(2)))


def test_verify_poly_bound_rejects_a_non_contraction_slot():
    op = generalized_foguel(2.0 * np.eye(2), np.eye(2))
    with pytest.raises(ValidationError, match="V must be a contraction"):
        verify_poly_bound(Polynomial([0.0, 0.5]), op)


def test_offdiagonal_norm_chain():
    gen = SeededGenerator(51)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    coeffs = gen.complex_gaussian(1, 6)[0]
    p = Polynomial(coeffs)
    total = np.zeros((4, 4), dtype=complex)
    chain = 0.0
    a_norm = operator_norm(a)
    t_norm = operator_norm(t)
    for j, c in enumerate(p.coeffs[1:], start=1):
        total += c * power_offdiag(a, t, j)
        chain += j * abs(c) * a_norm ** (j - 1)
    # each link of the displayed inequality chain
    assert operator_norm(total) <= t_norm * chain + 1e-9
    assert t_norm * chain <= t_norm * tilde_deriv_bound(p) + 1e-9


# --- a direct evaluation passed in by the caller -----------------------------


def _pair_and_quadratic(seed):
    gen = SeededGenerator(seed)
    op = generalized_foguel(random_contraction(4, gen), ginibre(4, gen))
    return op, Polynomial([0.25, 0.5j, -0.25])


def test_verify_poly_bound_takes_the_norm_of_the_direct_evaluation_passed_in():
    op, p = _pair_and_quadratic(53)
    report = verify_poly_bound(p, op)
    assert verify_poly_bound(p, op, direct=p.at_matrix(op.matrix)) == report
    halved = verify_poly_bound(p, op, direct=0.5 * p.at_matrix(op.matrix))
    assert halved.applied_norm == pytest.approx(0.5 * report.applied_norm, rel=1e-12)


@pytest.mark.parametrize("shape", [(4, 4), (8, 4), (9, 9), (8,)])
def test_a_wrong_shaped_direct_evaluation_is_rejected(shape):
    op, p = _pair_and_quadratic(54)
    wrong = np.zeros(shape, dtype=complex)
    with pytest.raises(ValidationError, match=r"direct evaluation must have shape \(8, 8\)"):
        verify_poly_bound(p, op, direct=wrong)
