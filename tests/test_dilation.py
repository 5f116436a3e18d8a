"""Dilation, compression bound and power/polynomial calculus tests."""

import numpy as np
import pytest

from foguel import (
    Polynomial,
    SeededGenerator,
    ValidationError,
    build_foguel,
    compress_generalized,
    foguel_norm_closed,
    foguel_power,
    generalized_foguel,
    ginibre,
    haar_unitary,
    halmos_dilation,
    lift_foguel,
    operator_norm,
    poly_apply,
    power_offdiag,
    random_contraction,
    tilde_deriv_bound,
    verify_poly_bound,
)
import foguel.dilation as dil
from foguel.errors import InternalConsistencyError
from foguel.linalg import adjoint, norm_lower_bound


def svd_norm(m):
    """Independent norm oracle: largest singular value via SVD."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


# --- Polynomial --------------------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0 + 0j, 2.0 + 0j)
    assert p.degree == 1
    assert Polynomial([0.0]).is_zero


def test_polynomial_evaluation():
    p = Polynomial([1.0, -2.0, 3.0])
    assert p(2.0) == pytest.approx(1 - 4 + 12)
    np.testing.assert_allclose(p.at_matrix(np.eye(2)), 2.0 * np.eye(2), atol=1e-15)


def test_polynomial_boundary_sup_monomial():
    assert Polynomial([0.0, 0.0, 1.0]).boundary_sup() == pytest.approx(1.0, abs=1e-12)


def test_polynomial_tilde():
    p = Polynomial([1.0, -2.0, 3j])
    assert p.tilde().coeffs == (1.0 + 0j, 2.0 + 0j, 3.0 + 0j)


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
    lift = lift_foguel(random_contraction(4, gen), t)
    assert abs(svd_norm(lift.padded_symbol) - svd_norm(t)) <= 1e-12


def test_lift_norm_equals_closed_form():
    gen = SeededGenerator(34)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    lift = lift_foguel(a, t)
    # W has a unitary slot, so its norm is the closed-form Foguel norm
    assert abs(svd_norm(lift.lifted) - foguel_norm_closed(svd_norm(t))) <= 1e-8


def test_lift_zero_contraction_hand_assembled():
    lift = lift_foguel(np.zeros((1, 1)), np.eye(1))
    expected = np.array(
        [
            [0, 1, 0, 1],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(lift.lifted, expected, atol=1e-15)
    assert lift.operator.isometry_defect <= 1e-12


def test_compress_scalar_fixture():
    r = compress_generalized([[0.5]], [[1.0]])
    np.testing.assert_allclose(r.real, [[0.5, 1.0], [0.0, 0.5]], atol=1e-15)
    # 2x2 SVD oracle: ||R||^2 is the largest eigenvalue of R R*
    norm = svd_norm(r)
    assert norm == pytest.approx(np.sqrt((1.5 + np.sqrt(2.0)) / 2.0), abs=1e-12)
    assert norm < foguel_norm_closed(1.0)


def test_compress_unitary_slot_attains_equality():
    gen = SeededGenerator(35)
    v = haar_unitary(4, gen)
    t = ginibre(4, gen)
    r = compress_generalized(v, t)
    assert abs(svd_norm(r) - foguel_norm_closed(svd_norm(t))) <= 1e-8


def test_compress_zero_symbol():
    a = random_contraction(3, SeededGenerator(36))
    r = compress_generalized(a, np.zeros((3, 3)))
    assert svd_norm(r) <= 1.0 + 1e-12 <= foguel_norm_closed(0.0) + 1e-12


def test_compress_bound_random_contractions():
    gen = SeededGenerator(37)
    for trial in range(100):
        n = 1 + trial % 8
        a = random_contraction(n, gen.substream(trial))
        t = ginibre(n, gen.substream(trial + 5000))
        r = compress_generalized(a, t)  # raises on violation
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
    r_norm = operator_norm(generalized_foguel(a, t))
    for n in range(1, 8):
        lhs = power_offdiag(a, t, n + 1)
        rhs = adjoint(a) @ power_offdiag(a, t, n) + t @ np.linalg.matrix_power(a, n)
        assert operator_norm(lhs - rhs) <= 1e-10 * (1.0 + r_norm) ** n


def test_power_offdiag_rejects_zero_index():
    with pytest.raises(ValidationError):
        power_offdiag(np.eye(2), np.eye(2), 0)


def test_foguel_power_first_is_operator():
    gen = SeededGenerator(44)
    a = random_contraction(3, gen)
    t = ginibre(3, gen)
    np.testing.assert_allclose(foguel_power(a, t, 1), generalized_foguel(a, t), atol=1e-15)


def test_foguel_power_scalar():
    np.testing.assert_allclose(
        foguel_power([[1.0]], [[1.0]], 3).real, [[1, 3], [0, 1]], atol=1e-14
    )


def test_foguel_power_matches_repeated_multiplication():
    gen = SeededGenerator(45)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    r = generalized_foguel(a, t)
    block = foguel_power(a, t, 5)
    assert operator_norm(block - np.linalg.matrix_power(r, 5)) <= 1e-9


def test_foguel_power_overflows_exactly_where_the_exact_allowance_does():
    # at this n the allowance overflows at ||R|| but not at the column-norm
    # lower bound, so a fast accept would wrongly return instead of raising
    gen = SeededGenerator(48)
    v, t = haar_unitary(2, gen), ginibre(2, gen)
    r = generalized_foguel(v, t)
    n = int(np.log(np.finfo(float).max) / np.log1p(operator_norm(r))) + 1
    with pytest.raises(OverflowError):
        (1.0 + operator_norm(r)) ** n
    assert np.isfinite((1.0 + norm_lower_bound(r)) ** n)
    with pytest.raises(OverflowError):
        foguel_power(v, t, n)


def test_power_self_check_catches_a_shifted_offdiagonal_block(monkeypatch):
    gen = SeededGenerator(49)
    v, t = haar_unitary(4, gen), ginibre(4, gen)
    original = dil.power_offdiag
    monkeypatch.setattr(
        dil, "power_offdiag", lambda a, t, n: original(a, t, n) + 1e-6 * np.eye(4)
    )
    # the residual is [[0, 1e-6 I], [0, 0]]: operator norm 1e-6, Frobenius 2e-6
    with pytest.raises(InternalConsistencyError, match=r"multiplication by 1\.000e-06 "):
        foguel_power(v, t, 3)


# --- polynomial calculus -----------------------------------------------------


def test_poly_apply_identity_polynomial():
    gen = SeededGenerator(46)
    a = random_contraction(3, gen)
    t = ginibre(3, gen)
    np.testing.assert_allclose(
        poly_apply(Polynomial([0.0, 1.0]), a, t), generalized_foguel(a, t), atol=1e-13
    )


def test_poly_apply_square_scalar():
    block = poly_apply(Polynomial([0.0, 0.0, 1.0]), [[1.0]], [[1.0]])
    np.testing.assert_allclose(block.real, [[1, 2], [0, 1]], atol=1e-14)


def test_poly_apply_affine_linearity():
    gen = SeededGenerator(47)
    a = random_contraction(4, gen)
    t = ginibre(4, gen)
    r = generalized_foguel(a, t)
    block = poly_apply(Polynomial([1.0, 1.0]), a, t)
    assert operator_norm(block - (np.eye(8) + r)) <= 1e-12


def test_poly_self_check_catches_conjugated_upper_left_coefficients(monkeypatch):
    gen = SeededGenerator(50)
    a, t = random_contraction(4, gen), ginibre(4, gen)
    p = Polynomial(gen.complex_gaussian(1, 5)[0])
    right = p.at_matrix(adjoint(a))
    wrong = Polynomial(np.conj(p.coeffs)).at_matrix(adjoint(a))
    original, calls = dil.block2, []

    def mutant(ul, ur, ll, lr):
        calls.append(ul)
        if len(calls) == 2:  # the assembly of p(R); the first call builds R
            ul = wrong
        return original(ul, ur, ll, lr)

    monkeypatch.setattr(dil, "block2", mutant)
    with pytest.raises(InternalConsistencyError) as excinfo:
        poly_apply(p, a, t)
    # the message carries the exact operator norm of the residual
    reported = float(str(excinfo.value).split(" by ")[1].split()[0])
    exact = operator_norm(wrong - right)
    assert reported == pytest.approx(exact, rel=1e-3)
    assert np.linalg.norm(wrong - right) > 1.01 * exact


def test_block_self_checks_run_no_eigensolve_of_order_2n(monkeypatch):
    # a passing self-check is certified by the Frobenius bound alone
    gen = SeededGenerator(51)
    v, t = haar_unitary(6, gen), ginibre(6, gen)
    p = Polynomial(gen.complex_gaussian(1, 6)[0])
    order_2n = []

    def counting(solver):
        def wrapper(m, *args, **kwargs):
            if np.shape(m)[-1] == 12:
                order_2n.append(solver.__name__)
            return solver(m, *args, **kwargs)

        return wrapper

    op = build_foguel(v, t)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    foguel_power(v, t, 5)
    poly_apply(p, v, t)
    op.gram
    assert order_2n == []


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
    report = verify_poly_bound(Polynomial([0.0, 0.0, 0.0, 1.0]), v, t)
    # the monomial case is the power estimate ||R^3|| <= Phi(3 ||T||)
    r3 = np.linalg.matrix_power(generalized_foguel(v, t), 3)
    assert report.applied_norm == pytest.approx(svd_norm(r3), abs=1e-10)
    assert report.slack >= -1e-8


def test_verify_poly_bound_equality_fixture():
    report = verify_poly_bound(Polynomial([0.0, 0.0, 1.0]), [[1.0]], [[1.0]])
    assert report.applied_norm == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    assert report.bound == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    assert abs(report.slack) <= 1e-10


def test_verify_poly_bound_constant():
    a = random_contraction(2, SeededGenerator(49))
    report = verify_poly_bound(Polynomial([0.5]), a, np.zeros((2, 2)))
    assert report.applied_norm == pytest.approx(0.5, abs=1e-12)
    assert report.bound == pytest.approx(1.0, abs=1e-12)


def test_verify_poly_bound_rejects_large_sup():
    a = random_contraction(2, SeededGenerator(50))
    with pytest.raises(ValidationError, match="sup-norm"):
        verify_poly_bound(Polynomial([0.0, 2.0]), a, np.eye(2))


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
    a, t = random_contraction(4, gen), ginibre(4, gen)
    return a, t, generalized_foguel(a, t), Polynomial([0.25, 0.5j, -0.25])


def test_block_self_checks_compare_against_the_direct_evaluation_passed_in():
    a, t, r, p = _pair_and_quadratic(52)
    power, value = np.linalg.matrix_power(r, 3), p.at_matrix(r)
    assert np.array_equal(foguel_power(a, t, 3, power), foguel_power(a, t, 3))
    assert np.array_equal(poly_apply(p, a, t, value), poly_apply(p, a, t))
    # a 1e-6 shift of the oracle is far above both allowances at this size
    shift = 1e-6 * np.eye(8)
    with pytest.raises(InternalConsistencyError, match=r"multiplication by 1\.000e-06 "):
        foguel_power(a, t, 3, power + shift)
    with pytest.raises(InternalConsistencyError, match=r"evaluation by 1\.000e-06 "):
        poly_apply(p, a, t, value + shift)


def test_verify_poly_bound_takes_the_norm_of_the_direct_evaluation_passed_in():
    a, t, r, p = _pair_and_quadratic(53)
    report = verify_poly_bound(p, a, t)
    assert verify_poly_bound(p, a, t, direct=p.at_matrix(r)) == report
    halved = verify_poly_bound(p, a, t, direct=0.5 * p.at_matrix(r))
    assert halved.applied_norm == pytest.approx(0.5 * report.applied_norm, rel=1e-12)


@pytest.mark.parametrize("shape", [(4, 4), (8, 4), (9, 9), (8,)])
def test_a_wrong_shaped_direct_evaluation_is_rejected(shape):
    a, t, _, p = _pair_and_quadratic(54)
    wrong = np.zeros(shape, dtype=complex)
    for call in (
        lambda: foguel_power(a, t, 2, wrong),
        lambda: poly_apply(p, a, t, wrong),
        lambda: verify_poly_bound(p, a, t, direct=wrong),
    ):
        with pytest.raises(ValidationError, match="direct evaluation must have shape"):
            call()
