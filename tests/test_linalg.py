"""Matrix kernel tests against closed-form 2x2 and diagonal oracles."""

import contextlib

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
    generalized_foguel,
    ginibre,
    haar_unitary,
    lift_foguel,
    linalg,
    multiset_match,
    operator_norm,
    psd_sqrt,
    random_contraction,
    solve_inverse,
    truncated_shift,
)
from foguel.errors import NotPositiveSemidefiniteError
from foguel.linalg import (
    PSD_VERDICT_MARGIN,
    _psd_margin,
    adjoint,
    hermitian_eigs,
    norm_certainly_below,
    norm_unless_below,
    psd_verdict,
)


def test_hermitian_eigs_identity():
    w, u = hermitian_eigs(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])


def test_hermitian_eigs_2x2_closed_form():
    # characteristic polynomial of [[2, 1], [1, 1]] is x^2 - 3x + 1
    expected = np.sort(np.roots([1.0, -3.0, 1.0]).real)
    w, u = hermitian_eigs(np.array([[2.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_hermitian_eigs_conjugation_invariance():
    gen = SeededGenerator(11)
    u = haar_unitary(3, gen)
    m = u @ np.diag([4.0, 2.0, 0.0]).astype(complex) @ adjoint(u)
    w, _ = hermitian_eigs(m)
    np.testing.assert_allclose(w, [0.0, 2.0, 4.0], atol=1e-12)


def test_hermitian_eigs_reconstruction_and_trace():
    gen = SeededGenerator(5)
    for trial in range(20):
        z = gen.complex_gaussian(6)
        m = z + adjoint(z)
        w, u = hermitian_eigs(m)
        scale = 1.0 + operator_norm(m)
        assert operator_norm(m - (u * w) @ adjoint(u)) <= 1e-10 * scale
        assert abs(np.trace(m).real - w.sum()) <= 1e-9 * scale
        assert np.all(np.diff(w) >= 0)


def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(ValidationError, match="asymmetry"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: build_foguel(m, np.eye(2)),
        lambda m: generalized_foguel(np.eye(2), m),
        operator_norm,
        psd_sqrt,
    ],
    ids=["build_foguel", "generalized_foguel", "operator_norm", "psd_sqrt"],
)
def test_an_exported_function_rejects_a_non_finite_entry(call, bad):
    # the boundary scan: the kernels behind these functions trust their input
    m = np.eye(2, dtype=np.complex128)
    m[1, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        call(m)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_jordan_block_golden_ratio():
    # sqrt of the largest root of x^2 - 3x + 1, the char. poly of [[2,1],[1,1]]
    expected = np.sqrt(np.max(np.roots([1.0, -3.0, 1.0]).real))
    assert abs(operator_norm([[1, 1], [0, 1]]) - expected) <= 1e-12
    assert abs(expected - (1 + np.sqrt(5)) / 2) <= 1e-12


def test_operator_norm_of_unitary_is_one():
    gen = SeededGenerator(2)
    for n in (1, 4, 16):
        assert abs(operator_norm(haar_unitary(n, gen)) - 1.0) <= 1e-12


def test_operator_norm_unitary_invariance_and_adjoint():
    gen = SeededGenerator(3)
    for trial in range(10):
        m = gen.complex_gaussian(5)
        u = haar_unitary(5, gen)
        w = haar_unitary(5, gen)
        assert abs(operator_norm(u @ m @ w) - operator_norm(m)) <= 1e-10
        assert abs(operator_norm(m) - operator_norm(adjoint(m))) <= 1e-12


def test_psd_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
        np.diag([2.0, 3.0]),
        atol=1e-14,
    )


def test_psd_sqrt_scalar_defect():
    defect = 1.0 - 0.5 * 0.5
    np.testing.assert_allclose(
        psd_sqrt([[defect]]), [[np.sqrt(0.75)]], atol=1e-15
    )


def test_psd_sqrt_squares_back_and_conjugates():
    gen = SeededGenerator(7)
    for trial in range(10):
        z = gen.complex_gaussian(4)
        p = z @ adjoint(z)
        s = psd_sqrt(p)
        scale = 1.0 + operator_norm(p)
        assert operator_norm(s @ s - p) <= 1e-9 * scale
        u = haar_unitary(4, gen)
        conjugated = psd_sqrt(u @ p @ adjoint(u))
        assert operator_norm(conjugated - u @ s @ adjoint(u)) <= 1e-9 * scale


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))
    assert err.value.min_eigenvalue == pytest.approx(-1e-6)


def test_solve_inverse_2x2_adjugate_oracle():
    # adjugate over determinant: det = 5, adj = [[-3, -1], [-1, -2]]
    m = np.array([[-2.0, 1.0], [1.0, -3.0]])
    expected = np.array([[-3.0, -1.0], [-1.0, -2.0]]) / 5.0
    np.testing.assert_allclose(solve_inverse(m), expected, atol=1e-14)


def test_solve_inverse_identity_and_diagonal():
    np.testing.assert_allclose(solve_inverse(np.eye(3)), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        solve_inverse(np.diag([2.0, 4.0]).astype(complex)),
        np.diag([0.5, 0.25]),
        atol=1e-15,
    )


def test_solve_inverse_two_sided_residual():
    gen = SeededGenerator(13)
    for trial in range(10):
        m = gen.complex_gaussian(6) + 2 * np.eye(6)
        inv = solve_inverse(m)
        eye = np.eye(6)
        assert operator_norm(m @ inv - eye) <= 1e-10
        assert operator_norm(inv @ m - eye) <= 1e-10


def test_solve_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError) as err:
        solve_inverse(np.ones((2, 2)))
    assert err.value.rcond is not None and err.value.rcond < 1e-12


def test_multiset_match_permutation():
    result = multiset_match([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], Tolerance(atol=1e-12))
    assert result.matched and result.max_deviation == 0.0


def test_multiset_match_quadratic_roots():
    # rounded decimals against the exact roots of x^2 - 3x + 1
    roots = np.sort(np.roots([1.0, -3.0, 1.0]).real)
    result = multiset_match([0.381966, 2.618034], roots, Tolerance(atol=1e-6))
    assert result.matched
    assert result.max_deviation <= 1e-6


def test_multiset_match_length_mismatch():
    with pytest.raises(ValidationError, match="length mismatch"):
        multiset_match([1.0, 2.0], [1.0, 2.0, 3.0], Tolerance(atol=1e-6))


@given(st.permutations(list(range(8))))
@settings(deadline=None, max_examples=50)
def test_multiset_match_any_permutation(perm):
    values = np.linspace(-3.0, 5.0, 8)
    result = multiset_match(values, values[perm], Tolerance(atol=1e-15))
    assert result.matched


def _matrix_draw(seed: int, dim: int, extremal: bool) -> np.ndarray:
    """A complex Gaussian matrix; the extremal draw is rank one, so ``||x||_F == ||x||_2``."""
    gen = SeededGenerator(seed)
    if extremal:
        u, w = gen.complex_gaussian(dim, 1), gen.complex_gaussian(dim, 1)
        return u @ adjoint(w)
    return gen.complex_gaussian(dim)


def _frobenius_accepts(x, limit) -> bool:
    """``||x||_F^2 + mu <= limit^2`` with the margin ``mu`` at the scale ``||x||_F^2 + limit^2``."""
    fro_sq = float(np.linalg.norm(x)) ** 2
    mu = _psd_margin(x.shape[0], fro_sq + limit * limit)
    return mu is not None and fro_sq + mu <= limit * limit


def _frobenius_threshold(x) -> float:
    """The limit ``||x||_F sqrt((1 + c) / (1 - c))`` at which the Frobenius test starts to accept.

    ``c`` is the margin per unit scale, so ``mu = c (||x||_F^2 + limit^2)``.
    """
    c = _psd_margin(x.shape[0], 1.0)
    return float(np.linalg.norm(x)) * np.sqrt((1.0 + c) / (1.0 - c))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.booleans(),
    st.floats(0.25, 4.0),
    st.floats(-8.0, 8.0),
)
@settings(deadline=None, max_examples=300)
def test_norm_unless_below_certifies_only_a_true_bound(seed, dim, extremal, margin, log_scale):
    x = _matrix_draw(seed, dim, extremal)
    x = x * 10.0**log_scale
    exact = operator_norm(x)
    # the Frobenius acceptance threshold, stepped up by ulps until accepted,
    # so margin == 1 is its boundary
    threshold = _frobenius_threshold(x)
    while not _frobenius_accepts(x, threshold):
        threshold = np.nextafter(threshold, np.inf)
    limit = margin * threshold
    norm = norm_unless_below(x, limit)
    if norm is None:
        assert exact <= limit
    else:
        assert norm == exact
    if margin >= 1.0:
        assert norm is None
    # a limit just below the norm is never certified, rank one included
    assert norm_unless_below(x, exact * (1.0 - 1e-6)) == exact


@pytest.mark.parametrize("extremal", [False, True], ids=["general", "rank-one"])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_the_frobenius_test_accepts_exactly_at_the_certificate_margin(monkeypatch, dim, extremal):
    # with the Cholesky certificate off, only ||x||_F^2 + mu <= limit^2 certifies
    monkeypatch.setattr(linalg, "norm_certainly_below", lambda x, bound: False)
    x = _matrix_draw(40 + dim, dim, extremal)
    exact = operator_norm(x)
    threshold = _frobenius_threshold(x)
    eps = np.finfo(float).eps
    assert norm_unless_below(x, threshold * (1.0 + 4.0 * eps)) is None
    assert norm_unless_below(x, threshold * (1.0 - 4.0 * eps)) == exact


def test_norm_unless_below_certifies_nothing_without_a_finite_limit():
    m = np.diag([2.0, 1.0]).astype(np.complex128)
    for limit in (None, np.nan, np.inf):
        assert norm_unless_below(m, limit) == 2.0
    zero = np.zeros((2, 2), dtype=np.complex128)
    assert norm_unless_below(zero, None) == 0.0
    # a zero residual under a finite limit is certified, with no 0.0 to compare
    assert norm_unless_below(zero, 1.0) is None


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(["general", "rank-one", "zero"]),
    st.sampled_from([-1e-9, 1e-9, 1e-7, 1e-4, 0.5]),
    st.floats(-8.0, 8.0),
)
@settings(deadline=None, max_examples=300)
def test_norm_certainly_below_implies_exact_bound(seed, dim, kind, rel, log_scale):
    gen = SeededGenerator(seed)
    if kind == "rank-one":
        m = gen.complex_gaussian(dim, 1) @ adjoint(gen.complex_gaussian(dim, 1))
    elif kind == "zero":
        m = np.zeros((dim, dim), dtype=np.complex128)
    else:
        m = gen.complex_gaussian(dim)
    m = m * 10.0**log_scale
    norm = operator_norm(m)
    bound = (norm if norm > 0.0 else 10.0**log_scale) * (1.0 + rel)
    certain = norm_certainly_below(m, bound)
    if certain:
        assert norm <= bound
    # within half the margin mu the certificate declines; well outside it, it decides
    if norm > 0.0:
        mu = _psd_margin(dim, float(np.linalg.norm(m @ adjoint(m))) + norm**2)
        assert not norm_certainly_below(m, np.sqrt(norm**2 + mu / 2.0))
    if rel >= 1e-4:
        assert certain


def test_norm_certainly_below_declines_non_finite_and_non_positive_input():
    m = np.diag([2.0, 1.0]).astype(np.complex128)
    assert norm_certainly_below(m, 2.5)
    for bound in (np.nan, np.inf, -2.5, 0.0, 1e200):
        assert not norm_certainly_below(m, bound)
    with np.errstate(invalid="ignore", over="ignore"):
        for bad in (np.nan, np.inf):
            assert not norm_certainly_below(np.diag([bad, 1.0]), 2.5)
        # finite entries whose product m m* overflows
        assert not norm_certainly_below(np.full((2, 2), 1e155), 1e149)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 32),
    st.sampled_from([0.5, 2.0, 10.0, 1e3]),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-12.0, 0.5),
    st.integers(-6, 6),
)
@settings(deadline=None, max_examples=300)
def test_psd_verdict_is_the_exact_verdict(seed, dim, k, side, log_shift, log_scale):
    # h = Q diag(lam) Q* with lam_min placed at -shift + side * k * mu
    gen = SeededGenerator(seed)
    scale = 10.0**log_scale
    shift = scale * 10.0**log_shift
    lam = np.concatenate([[-shift], -shift + scale * gen.rng.uniform(0.1, 4.0, dim - 1)])
    mu = PSD_VERDICT_MARGIN * dim * (dim + 1) * np.finfo(float).eps * (
        np.linalg.norm(lam) + shift
    )
    lam[0] += side * k * mu
    q = haar_unitary(dim, gen)
    h = (q * lam) @ adjoint(q)
    h = (h + adjoint(h)) / 2.0
    verdict = psd_verdict(h, shift)
    exact = bool(np.linalg.eigvalsh(h)[0] >= -shift)
    if verdict is not None:
        assert verdict == exact
    # two margins from the threshold, the factorization decides
    if k >= 2.0:
        assert verdict is (side > 0)


def test_psd_verdict_declines_non_finite_and_extreme_input():
    h = np.diag([2.0, 1.0]).astype(np.complex128)
    assert psd_verdict(h, 0.5) is True
    assert psd_verdict(h, -1.5) is False
    for shift in (np.nan, np.inf, -np.inf, 1e200):
        assert psd_verdict(h, shift) is None
    with np.errstate(invalid="ignore", over="ignore"):
        for bad in (np.nan, np.inf, -np.inf):
            assert psd_verdict(np.diag([bad, 1.0]), 0.5) is None
        # finite entries whose Frobenius norm overflows
        assert psd_verdict(np.diag([1e300, 1e300]), 0.5) is None
    # zero sits exactly on the threshold, below the smallest scale decided
    assert psd_verdict(np.zeros((2, 2)), 0.0) is None


def test_tolerance_validation():
    with pytest.raises(ValidationError):
        Tolerance(atol=-1.0)
    with pytest.raises(ValidationError):
        Tolerance(atol=0.0)
    with pytest.raises(ValidationError):
        Tolerance(atol=float("nan"))


# --- the gap-certified Lanczos path of operator_norm -----------------------------

EPS = np.finfo(np.float64).eps


@contextlib.contextmanager
def _lanczos_from(min_order: int = 8):
    """``operator_norm`` takes the Lanczos path from ``min_order``; yields the orders ``eigvalsh`` ran at."""
    calls = []
    exact = np.linalg.eigvalsh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m)[-1])
        return exact(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "LANCZOS_MIN_ORDER", min_order)
        patch.setattr(np.linalg, "eigvalsh", counting)
        yield calls


def _with_singular_values(gen, sigma, right=None) -> np.ndarray:
    """``U diag(sigma) V*`` for Haar ``U`` and ``V``; ``right`` replaces ``V``'s first column."""
    n = len(sigma)
    u = haar_unitary(n, gen)
    v = haar_unitary(n, gen)
    if right is not None:
        q, r = np.linalg.qr(np.column_stack([right, v[:, 1:]]))
        v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # first column is ``right`` itself
    return (u * np.asarray(sigma, dtype=float)) @ adjoint(v)


def _assert_norm_agrees(m) -> float:
    """``operator_norm(m)`` within ``4 n eps ||m||`` of the SVD's largest singular value."""
    value = operator_norm(m)
    svd_norm = np.linalg.norm(m, 2)
    assert abs(value - svd_norm) <= 4 * max(m.shape) * EPS * svd_norm
    return value


@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 40),
    st.sampled_from(["general", "rank-one", "zero"]),
    st.floats(-3.0, 3.0),
)
@settings(deadline=None, max_examples=100)
def test_lanczos_norm_agrees_with_the_svd(seed, dim, kind, log_scale):
    gen = SeededGenerator(seed)
    if kind == "general":
        m = gen.complex_gaussian(dim)
    elif kind == "rank-one":
        m = gen.complex_gaussian(dim, 1) @ gen.complex_gaussian(1, dim)
    else:
        m = np.zeros((dim, dim), dtype=np.complex128)
    with _lanczos_from(8) as eigvalsh_orders:
        _assert_norm_agrees(m * 10.0**log_scale)
    if kind == "zero":  # the first Lanczos step breaks down
        assert eigvalsh_orders == [dim]


@given(st.integers(0, 2**32 - 1), st.integers(32, 48), st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=25)
def test_lanczos_norm_falls_back_on_two_top_singular_values_1e12_apart(seed, dim, log_scale):
    # the Ritz gap is below psd_verdict's margin at these orders, so no
    # Cholesky can prove it
    gen = SeededGenerator(seed)
    rest = np.sort(np.array([gen.uniform(0.0, 0.9) for _ in range(dim - 2)]))[::-1]
    m = _with_singular_values(gen, [1.0, 1.0 - 1e-12, *rest]) * 10.0**log_scale
    with _lanczos_from(8) as eigvalsh_orders:
        _assert_norm_agrees(m)
    assert eigvalsh_orders == [dim]


@pytest.mark.parametrize("dim", [8, 64, 200])
def test_lanczos_norm_falls_back_on_the_truncated_shift(dim):
    # S* S = diag(1, ..., 1, 0): the top eigenvalue has no gap
    with _lanczos_from(8) as eigvalsh_orders:
        assert _assert_norm_agrees(truncated_shift(dim)) == 1.0
    assert eigvalsh_orders == [dim]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lanczos_norm_falls_back_when_the_start_misses_the_top_singular_vector(seed):
    # the Krylov space of the fixed start never holds the top right singular
    # vector, so Lanczos settles on the second one and the certificate fails
    dim = 96
    gen = SeededGenerator(seed)
    start = linalg._lanczos_start(dim)
    w = gen.complex_gaussian(dim, 1)[:, 0]
    right = w - np.vdot(start, w) * start
    rest = [gen.uniform(0.0, 0.5) for _ in range(dim - 2)]
    m = _with_singular_values(gen, [1.0, 0.999, *rest], right / np.linalg.norm(right))
    assert abs(np.vdot(start, np.linalg.svd(m)[2][0].conj())) <= 1e-11  # eps / gap, the SVD's own error
    with _lanczos_from(8) as eigvalsh_orders:
        _assert_norm_agrees(m)
    assert eigvalsh_orders == [dim]


def test_lanczos_norm_is_bit_identical_to_eigvalsh_when_the_cholesky_fails(monkeypatch):
    gen = SeededGenerator(17)
    m = gen.complex_gaussian(24)
    g = adjoint(m) @ m
    today = float(np.sqrt(max(float(np.linalg.eigvalsh((g + adjoint(g)) / 2.0)[-1]), 0.0)))
    factored = []
    monkeypatch.setattr(linalg, "_cholesky_succeeds", lambda a: factored.append(a.shape) or False)
    with _lanczos_from(8) as eigvalsh_orders:
        assert operator_norm(m) == today
    assert factored == [(24, 24)] and eigvalsh_orders == [24]


def test_lanczos_breakdown_and_a_single_ritz_value_fall_back(monkeypatch):
    n = 8
    e1 = np.eye(n, dtype=np.complex128)[0]
    monkeypatch.setattr(linalg, "_lanczos_start", lambda order: e1[:order].copy())
    # g e_1 = 9 e_1 exactly: beta = 0 at the first step
    m = np.diag(np.arange(n, 0, -1) / 8.0 * 3.0).astype(np.complex128)
    g = adjoint(m) @ m
    assert linalg._lanczos_top_eigenvalue(g.copy()).reason == "breakdown"
    # g e_1 = e_1 + 1e-17 e_2: the first Ritz pair has converged, alone
    h = np.eye(n, dtype=np.complex128)
    h[0, 1] = h[1, 0] = 1e-17
    top = linalg._lanczos_top_eigenvalue(h)
    assert (top.reason, top.steps, top.value) == ("no-gap", 1, None)
    with _lanczos_from(8) as eigvalsh_orders:
        assert operator_norm(m) == 3.0
    assert eigvalsh_orders == [n]


def test_lanczos_norm_repeats_and_certifies_a_general_matrix():
    m = SeededGenerator(29).complex_gaussian(40)
    with _lanczos_from(8) as eigvalsh_orders:
        first, second = operator_norm(m), operator_norm(m)
    assert first == second and eigvalsh_orders == []


def test_lanczos_certificate_factors_the_deflated_matrix_in_place(monkeypatch):
    n = 10
    gen = SeededGenerator(31)
    z = gen.complex_gaussian(n)
    g = (z @ adjoint(z) + adjoint(z @ adjoint(z))) / 2.0
    x = gen.complex_gaussian(n, 1)[:, 0]
    x /= np.linalg.norm(x)
    y = g @ x
    a = float(np.vdot(x, y).real)
    q = np.eye(n) - np.outer(x, x.conj())
    expected = 3.0 * np.eye(n) - q @ g @ q
    before = g.copy()
    seen = []
    monkeypatch.setattr(linalg, "_CERTIFICATE_ROWS", 3)  # several row blocks
    monkeypatch.setattr(linalg, "_cholesky_succeeds", lambda m: seen.append(m.copy()) or True)
    assert linalg._deflation_factors(g, x, y - 0.5 * a * x, 3.0)
    np.testing.assert_allclose(np.tril(seen[0]), np.tril(expected), atol=1e-12)
    assert np.array_equal(np.tril(g), np.tril(before))  # lower triangle and diagonal as they were


def test_lanczos_norm_runs_unpatched_at_order_1024():

    assert linalg.LANCZOS_MIN_ORDER <= 1024
    gen = SeededGenerator(3)
    op = generalized_foguel(random_contraction(256, gen), ginibre(256, gen))
    w = lift_foguel(op).matrix
    g = adjoint(w) @ w
    exact = float(np.sqrt(np.linalg.eigvalsh((g + adjoint(g)) / 2.0)[-1]))
    with _lanczos_from(linalg.LANCZOS_MIN_ORDER) as eigvalsh_orders:
        value = operator_norm(w)
    assert eigvalsh_orders == []
    assert abs(value - exact) <= 4 * 1024 * EPS * exact
