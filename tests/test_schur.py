"""Schur reduction, Neumann series and Schur-route norm tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foguel import (
    InternalConsistencyError,
    NotPositiveSemidefiniteError,
    SeededGenerator,
    SingularMatrixError,
    Tolerance,
    ValidationError,
    build_foguel,
    foguel_norm_closed,
    foguel_positivity,
    ginibre,
    haar_unitary,
    neumann_eval,
    norm_by_bisection,
    operator_norm,
    random_contraction,
    scalar_criterion,
    solve_inverse,
    symbol_norm_from_foguel,
    truncated_shift,
)
from foguel.linalg import adjoint, hermitian_eigs, hermitian_eigvals
from foguel.schur import _complement


def _unitary_pair(n, seed):
    gen = SeededGenerator(seed)
    return haar_unitary(n, gen), ginibre(n, gen)


# --- Schur complement --------------------------------------------------------


def schur_complement(p, x, q):
    """``P - X Q^{-1} X*`` of ``[[P, X], [X*, Q]]``, with ``Q``'s eigenpairs from ``eigh``."""
    w, u = np.linalg.eigh(np.asarray(q, dtype=complex))
    return _complement(np.asarray(p, dtype=complex), np.asarray(x, dtype=complex) @ u, w)


def test_schur_complement_zero_coupling():
    p = np.diag([2.0, 3.0]).astype(complex)
    np.testing.assert_allclose(
        schur_complement(p, np.zeros((2, 2)), np.eye(2)), p, atol=1e-15
    )


def test_schur_complement_scalar_psd_case():
    complement = schur_complement([[2.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(complement, [[1.0]], atol=1e-15)
    block = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.min(np.linalg.eigvalsh(block)) >= 0.0
    assert complement[0, 0].real >= 0.0


def test_schur_complement_scalar_indefinite_case():
    complement = schur_complement([[0.5]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(complement, [[-0.5]], atol=1e-15)
    block = np.array([[0.5, 1.0], [1.0, 1.0]])
    # both sides of the equivalence fail together
    assert np.min(np.linalg.eigvalsh(block)) < 0.0
    assert complement[0, 0].real < 0.0


def test_schur_complement_equivalence_random():
    gen = SeededGenerator(61)
    for trial in range(50):
        z = gen.complex_gaussian(3)
        q = z @ adjoint(z) + 0.5 * np.eye(3)
        herm = gen.complex_gaussian(3)
        p = (herm + adjoint(herm)) / 2.0
        x = gen.complex_gaussian(3)
        block = np.block([[p, x], [adjoint(x), q]])
        block_min = float(np.min(np.linalg.eigvalsh(block)))
        comp_min = float(np.min(np.linalg.eigvalsh(schur_complement(p, x, q))))
        if abs(block_min) < 1e-9 or abs(comp_min) < 1e-9:
            continue  # skip draws inside the singular band
        assert (block_min >= 0.0) == (comp_min >= 0.0)


def test_schur_complement_rejects_indefinite_q():
    with pytest.raises(NotPositiveSemidefiniteError):
        schur_complement(np.eye(2), np.eye(2), np.diag([1.0, -1.0]).astype(complex))


def test_schur_complement_and_solve_inverse_refuse_the_same_ill_conditioned_q():
    # min eigenvalue 1e-12 passes the positive-definite floor; rcond 1e-13 does not
    q = np.diag([1e-12, 10.0]).astype(complex)
    for refuse in (lambda: schur_complement(np.eye(2), np.eye(2), q), lambda: solve_inverse(q)):
        with pytest.raises(SingularMatrixError) as excinfo:
            refuse()
        assert excinfo.value.rcond == 1e-13


# --- positivity certificates -------------------------------------------------


def test_foguel_positivity_scalar_positive():
    op = build_foguel([[1]], [[1]])
    cert = foguel_positivity(op, 2.0)
    # scalar closed form: (M^2 - 1) - 1 - 1/(M^2 - 1) = 5/3
    assert cert.min_eigenvalue == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert cert.positive
    assert cert.direct_min_eigenvalue >= 0.0


def test_foguel_positivity_scalar_negative():
    op = build_foguel([[1]], [[1]])
    cert = foguel_positivity(op, 1.2)
    expected = 0.44 - 1.0 - 1.0 / 0.44
    assert cert.min_eigenvalue == pytest.approx(expected, abs=1e-12)
    assert not cert.positive


def test_foguel_positivity_zero_symbol():
    v = haar_unitary(3, SeededGenerator(62))
    op = build_foguel(v, np.zeros((3, 3)))
    for level in (1.1, 2.0, 5.0):
        cert = foguel_positivity(op, level)
        np.testing.assert_allclose(
            cert.reduced_matrix, (level**2 - 1.0) * np.eye(3), atol=1e-10
        )
        assert cert.positive


def test_foguel_positivity_rejects_small_level():
    op = build_foguel([[1]], [[1]])
    with pytest.raises(ValidationError, match="exceed 1"):
        foguel_positivity(op, 1.0)


def test_foguel_positivity_verdicts_agree():
    gen = SeededGenerator(63)
    checked = 0
    for trial in range(200):
        sub = gen.substream(trial)
        v = haar_unitary(4, sub)
        t = ginibre(4, sub)
        op = build_foguel(v, t)
        level = sub.uniform(1.05, foguel_norm_closed(operator_norm(t)) + 1.0)
        cert = foguel_positivity(op, level)
        band = 1e-9 * (1.0 + level**2)
        if min(abs(cert.min_eigenvalue), abs(cert.direct_min_eigenvalue)) <= band:
            continue
        assert cert.positive == (cert.direct_min_eigenvalue >= -cert.threshold)
        checked += 1
    assert checked > 150

    # non-isometric V slots, against both routes computed afresh
    checked = 0
    for trial in range(100):
        sub = gen.substream(1000 + trial)
        v = truncated_shift(4) if trial % 2 else random_contraction(4, sub)
        t = ginibre(4, sub)
        op = build_foguel(v, t, require_isometry=False)
        level = sub.uniform(1.05, foguel_norm_closed(operator_norm(t)) + 1.0)
        cert = foguel_positivity(op, level)
        eye = np.eye(4)
        upper = level**2 * eye - adjoint(v) @ v - t @ adjoint(t)
        lower = level**2 * eye - v @ adjoint(v)
        reduced_min = np.linalg.eigvalsh(schur_complement(upper, -(t @ adjoint(v)), lower))[0]
        direct_min = np.linalg.eigvalsh(level**2 * np.eye(8) - op.gram)[0]
        tol = 1e-10 * (1.0 + level**2)
        assert abs(cert.min_eigenvalue - reduced_min) <= tol
        assert abs(cert.direct_min_eigenvalue - direct_min) <= tol
        band = 1e-9 * (1.0 + level**2)
        if min(abs(reduced_min), abs(direct_min)) <= band:
            continue
        assert cert.positive == (direct_min >= -cert.threshold)
        checked += 1
    assert checked > 75


def _exact_verdict(cert):
    return bool(hermitian_eigvals(cert.reduced_matrix)[0] >= -cert.threshold)


@pytest.mark.parametrize("slot", ["unitary", "random-contraction", "truncated-shift"])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_foguel_positivity_verdict_is_exact_at_the_norm(slot, dim):
    # the Cholesky certificate decides most levels; it must give the exact
    # eigensolve's verdict even where that verdict flips, within 1e-9 of ||R||
    for seed in range(3):
        gen = SeededGenerator(64 + seed)
        if slot == "unitary":
            v = haar_unitary(dim, gen)
        elif slot == "random-contraction":
            v = random_contraction(dim, gen)
        else:
            v = truncated_shift(dim)
        op = build_foguel(v, ginibre(dim, gen), require_isometry=slot == "unitary")
        norm = operator_norm(op.matrix)
        lower, upper = norm - 1e-9, norm + 1e-9
        assert not _exact_verdict(foguel_positivity(op, lower))
        assert _exact_verdict(foguel_positivity(op, upper))
        levels = [lower, upper]
        while np.nextafter(lower, upper) < upper:  # down to adjacent floats
            mid = (lower + upper) / 2.0
            levels.append(mid)
            if _exact_verdict(foguel_positivity(op, mid)):
                upper = mid
            else:
                lower = mid
        for _ in range(8):
            levels += [lower, upper]
            lower, upper = np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)
        for level in levels:
            cert = foguel_positivity(op, level)
            assert cert.positive == _exact_verdict(cert)


# --- Neumann series ----------------------------------------------------------


def test_neumann_converges_to_closed_form():
    v, t = _unitary_pair(4, seed=64)
    level = np.sqrt(2.0)
    # (level^2 - 1)^{-1} = 1, so the limit is T T* itself
    value = neumann_eval(build_foguel(v, t), level, 120)
    np.testing.assert_allclose(value, t @ adjoint(t), atol=1e-12 * (1 + operator_norm(t) ** 2))


def test_neumann_zeroth_order_unitary():
    v, t = _unitary_pair(3, seed=65)
    value = neumann_eval(build_foguel(v, t), 2.0, 0)
    np.testing.assert_allclose(value, (t @ adjoint(t)) / 4.0, atol=1e-13)


@pytest.mark.parametrize("level", [1.5, 2.0, 4.0])
def test_neumann_truncation_ratio(level):
    v, t = _unitary_pair(4, seed=66)
    op = build_foguel(v, t)
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    errors = [
        operator_norm(neumann_eval(op, level, k) - closed_form) for k in (2, 3, 4, 5)
    ]
    for e_k, e_next in zip(errors, errors[1:]):
        ratio = e_next / e_k
        assert abs(ratio - level**-2) <= 0.1 * level**-2


def test_neumann_closed_form_identity():
    v, t = _unitary_pair(5, seed=67)
    level = 1.7
    n = 5
    kernel = adjoint(v) @ solve_inverse(level**2 * np.eye(n) - v @ adjoint(v)) @ v
    exact = t @ kernel @ adjoint(t)
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    assert operator_norm(exact - closed_form) <= 1e-10 * operator_norm(t) ** 2


def test_neumann_rejects_divergent_level():
    v, t = _unitary_pair(2, seed=68)
    with pytest.raises(ValidationError, match="diverges"):
        neumann_eval(build_foguel(v, t), 1.0, 5)


def _neumann_loop(v, t, level, order):
    """Reference: the Neumann series summed one term per product."""
    projector = v @ adjoint(v)
    ratio = level ** (-2)
    term = projector.copy()  # (V V*)^{j+1} / level^{2j} at j = 0
    kernel = term.copy()
    for _ in range(order):
        term = (projector @ term) * ratio
        kernel = kernel + term
    kernel = kernel * ratio
    result = t @ kernel @ adjoint(t)
    return (result + adjoint(result)) / 2.0


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_neumann_binary_splitting_matches_the_loop_at_every_order(dim):
    # a strict contraction, so V V* has distinct eigenvalues below 1 and an
    # off-by-one in the number of terms is visible at every order
    gen = SeededGenerator(72 + dim)
    g, t = ginibre(dim, gen), ginibre(dim, gen)
    v = 0.95 * g / operator_norm(g)
    op = build_foguel(v, t, require_isometry=False)
    for order in range(34):  # every bit pattern of order + 1 through 6 bits
        expected = _neumann_loop(v, t, 1.05, order)
        value = neumann_eval(op, 1.05, order)
        assert operator_norm(value - expected) <= 1e-13 * operator_norm(expected), order


def test_neumann_matches_the_loop_and_the_closed_form_in_the_subnormal_regime():
    # at level 14.7 the terms V (V V*)^j V* / level^{2j} pass through the
    # subnormal range well before j = 400
    v, t = _unitary_pair(8, seed=75)
    level = 14.7
    value = neumann_eval(build_foguel(v, t), level, 400)
    scale = operator_norm(t) ** 2
    assert operator_norm(value - _neumann_loop(v, t, level, 400)) <= 1e-13 * scale
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    assert operator_norm(value - closed_form) <= 1e-13 * scale


def test_neumann_at_order_two_to_the_twenty_is_the_closed_form_limit():
    v, t = _unitary_pair(3, seed=76)
    level = 1.3
    value = neumann_eval(build_foguel(v, t), level, 2**20)
    closed_form = (t @ adjoint(t)) / (level**2 - 1.0)
    assert operator_norm(value - closed_form) <= 1e-12 * operator_norm(closed_form)


@pytest.mark.parametrize("order", [2.5, "3", True, None])
def test_neumann_rejects_a_non_integral_order(order):
    v, t = _unitary_pair(2, seed=77)
    with pytest.raises(ValidationError, match=f"truncation order must be an integer, got {order!r}"):
        neumann_eval(build_foguel(v, t), 2.0, order)


def test_neumann_accepts_numpy_integer_orders_and_rejects_negative_ones():
    op = build_foguel(*_unitary_pair(2, seed=78))
    assert np.array_equal(neumann_eval(op, 2.0, np.int64(3)), neumann_eval(op, 2.0, 3))
    with pytest.raises(ValidationError, match="truncation order must be >= 0, got -1"):
        neumann_eval(op, 2.0, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda op: neumann_eval(op, float("nan"), 3),
        lambda op: foguel_positivity(op, float("nan")),
        lambda op: scalar_criterion(1.0, float("nan")),
        lambda op: scalar_criterion(float("nan"), 2.0),
    ],
    ids=["neumann_eval-level", "foguel_positivity-level", "scalar_criterion-level",
         "scalar_criterion-symbol-norm"],
)
def test_a_nan_argument_is_rejected_as_bad_input(call):
    with pytest.raises(ValidationError, match="nan"):
        call(build_foguel([[1]], [[1]]))


# --- scalar criterion ----------------------------------------------------------


def test_scalar_criterion_values():
    assert scalar_criterion(0.0, 1.5)
    assert scalar_criterion(1.5, 2.0)  # boundary: (4 - 1) / 2 = 1.5
    assert not scalar_criterion(1.0, 1.5)  # 1.25 / 1.5 < 1


def test_scalar_criterion_boundary_scan():
    for level in np.linspace(1.01, 10.0, 40):
        boundary = symbol_norm_from_foguel(level)
        assert scalar_criterion(boundary, level)
        assert not scalar_criterion(boundary + 1e-6, level)


@given(st.floats(min_value=0.0, max_value=20.0))
@settings(deadline=None)
def test_scalar_criterion_matches_norm_formula(t):
    # positivity holds strictly above the closed-form norm, fails below
    phi = foguel_norm_closed(t)
    if phi + 1e-6 > 1.0 + 1e-9:
        assert scalar_criterion(t, phi + 1e-6)
    if t > 1e-6 and phi - 1e-6 > 1.0:
        assert not scalar_criterion(t, phi - 1e-6)


# --- bisection ----------------------------------------------------------------


def test_bisection_scalar_golden_ratio():
    op = build_foguel([[1]], [[1]])
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert abs(result.value - foguel_norm_closed(1.0)) <= 1e-7 + 1e-7
    assert result.iterations <= 60


def test_bisection_random_matches_closed_form():
    v, t = _unitary_pair(8, seed=69)
    op = build_foguel(v, t)
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert abs(result.value - foguel_norm_closed(operator_norm(t))) <= 1e-6
    # SVD oracle for the same norm
    svd_norm = float(np.linalg.svd(op.matrix, compute_uv=False)[0])
    assert abs(result.value - svd_norm) <= 1e-6


def _counting_eigensolves(monkeypatch, order):
    """Patch numpy's Hermitian eigensolvers to record each call at ``order``."""
    calls = []

    def counting(solver):
        def wrapper(a, *args, **kwargs):
            if np.shape(a)[-1] == order:
                calls.append(solver.__name__)
            return solver(a, *args, **kwargs)

        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    return calls


def test_bisection_runs_one_eigensolve_of_order_2n_per_operator(monkeypatch):
    # the direct route's 2n x 2n Gram spectrum is the only one; every level
    # and the closing certificate work on order n
    v, t = _unitary_pair(6, seed=70)
    order_2n = _counting_eigensolves(monkeypatch, 12)
    for atol in (1e-3, 1e-9):
        order_2n.clear()
        result = norm_by_bisection(build_foguel(v, t), Tolerance(atol=atol))
        assert result.iterations > 0
        assert order_2n == ["eigvalsh"]


def test_bisection_evaluates_at_most_two_levels():
    # the first Newton step from closed * (1 + START_OFFSET) lands within a
    # few ulps of ||R||, and the second step is short enough to stop
    for dim in (1, 2, 3, 4, 8, 16, 32, 64):
        for seed in range(50):
            v, t = _unitary_pair(dim, seed=1000 * dim + seed)
            result = norm_by_bisection(build_foguel(v, t), Tolerance(atol=1e-7))
            assert 1 <= result.iterations <= 2, (dim, seed)


@pytest.mark.parametrize("t", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_bisection_evaluates_at_most_three_levels_for_a_small_symbol(t):
    # near M = 1 the reduced matrix's pole at M^2 = 1 bends f, so Newton
    # steps from a far start approach the norm slowly
    op = build_foguel([[1]], [[t]])
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert 1 <= result.iterations <= 3
    assert abs(result.value - operator_norm(op.matrix)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 3, 8, 24])
def test_bisection_bracket_is_certified_at_both_ends(dim):
    for seed in range(5):
        op = build_foguel(*_unitary_pair(dim, seed=80 + seed))
        result = norm_by_bisection(op, Tolerance(atol=1e-7))
        assert result.lower == result.value - 5e-8
        assert result.upper == result.value + 5e-8
        assert not foguel_positivity(op, result.lower).positive
        assert foguel_positivity(op, result.upper).positive
        assert abs(result.value - operator_norm(op.matrix)) <= 1e-13 * result.value


def test_bisection_value_does_not_read_the_gram_spectrum(monkeypatch):
    from foguel.models import FoguelOperator

    v, t = _unitary_pair(8, seed=85)
    expected = norm_by_bisection(build_foguel(v, t), Tolerance(atol=1e-7))
    original = FoguelOperator.__dict__["gram_eigvals"].func
    monkeypatch.setattr(
        FoguelOperator, "gram_eigvals", property(lambda op: np.nextafter(original(op), np.inf))
    )
    result = norm_by_bisection(build_foguel(v, t), Tolerance(atol=1e-7))
    assert result == expected


def test_bisection_falls_back_to_the_verdicts_when_newton_steps_are_wrong(monkeypatch):
    # eigenvalues shifted by 1e-5 aim every Newton step at a root about 1e-6
    # below ||R||; those steps leave the bracket, so bisection on the verdicts
    # finds the norm to within the singular band
    from foguel import schur

    def shifted(m):
        eigvals, eigvecs = hermitian_eigs(m)
        return eigvals + 1e-5, eigvecs

    monkeypatch.setattr(schur, "hermitian_eigs", shifted)
    op = build_foguel(*_unitary_pair(4, seed=86))
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert result.iterations > 8
    assert abs(result.value - operator_norm(op.matrix)) <= 1e-9


@pytest.mark.parametrize("budget, end", [(1, "lower"), (2, "upper")])
def test_bisection_certificate_catches_an_iteration_cut_short(monkeypatch, budget, end):
    # for the golden-ratio operator one Newton step from closed + 1 stays
    # above ||R|| and the next lands below it; the certificate refuses both
    from foguel import schur

    monkeypatch.setattr(schur, "START_OFFSET", 1.0 / foguel_norm_closed(1.0))
    monkeypatch.setattr(schur, "MAX_ITERATIONS", budget)
    op = build_foguel([[1]], [[1]])
    with pytest.raises(InternalConsistencyError, match=f"at the {end} end"):
        norm_by_bisection(op, Tolerance(atol=1e-7))


def test_bisection_refuses_a_tolerance_inside_the_singular_band():
    # at ||R|| near 1e4 a verdict cannot order levels 5e-7 apart
    with pytest.raises(ValidationError, match="too fine to certify"):
        norm_by_bisection(build_foguel([[1]], [[1e4]]), Tolerance(atol=1e-7))


def test_bisection_short_circuits_a_symbol_too_small_to_bracket():
    op = build_foguel([[1]], [[1e-8]])
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert result.iterations == 0
    assert result.value == operator_norm(op.matrix)


def test_bisection_zero_symbol_short_circuit():
    op = build_foguel(np.eye(3), np.zeros((3, 3)))
    result = norm_by_bisection(op, Tolerance(atol=1e-7))
    assert result.value == 1.0
    assert result.iterations == 0
