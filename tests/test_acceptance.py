"""Acceptance gate: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so the suite doubles as a human-readable
checklist.  All randomness is seeded; reruns are exact.
"""

import numpy as np

from foguel import (
    ExperimentConfig,
    Polynomial,
    SeededGenerator,
    Tolerance,
    build_foguel,
    embed_corner,
    emit_report,
    foguel_gram_inverse,
    foguel_inverse,
    foguel_norm_closed,
    foguel_positivity,
    foguel_power,
    generalized_foguel,
    ginibre,
    gram_minus_identity_inverse,
    haar_unitary,
    halmos_dilation,
    inverse_branches,
    lift_foguel,
    norm_by_bisection,
    operator_norm,
    psd_sqrt,
    random_contraction,
    resolvent_blocks,
    run_experiment,
    truncated_shift,
    verify_poly_bound,
    verify_spectral_mapping,
)
from foguel.linalg import adjoint

DIMS = (1, 2, 4, 8, 16, 32)


def announce(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({name}): {status} - {detail}")
    return ok


def test_criterion_1_norm_identity():
    worst = 0.0
    for trial in range(500):
        gen = SeededGenerator(1001, trial)
        n = DIMS[trial % len(DIMS)]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = build_foguel(v, t)
        t_norm = operator_norm(t)
        dev = abs(operator_norm(op.matrix) - foguel_norm_closed(t_norm))
        worst = max(worst, dev / (1.0 + t_norm))

    golden_dev = abs(operator_norm([[1, 1], [0, 1]]) - 1.6180339887)
    ok = worst <= 1e-8 and golden_dev <= 1e-10
    assert announce(
        1,
        "norm identity",
        ok,
        f"max scaled deviation {worst:.3e} over 500 trials; "
        f"golden-ratio fixture off by {golden_dev:.3e}",
    )


def test_criterion_2_spectral_mapping():
    worst = 0.0
    worst_pair = 0.0
    for trial in range(200):
        gen = SeededGenerator(1002, trial)
        n = DIMS[trial % len(DIMS)]
        op = build_foguel(haar_unitary(n, gen), ginibre(n, gen))
        t_norm = operator_norm(op.t)
        scale = 1.0 + t_norm**2
        report = verify_spectral_mapping(op, Tolerance(atol=1e-8 * scale))
        assert report.matched
        worst = max(worst, report.max_deviation / scale)
        for mu in report.symbol_gram_spectrum:
            lo, hi = inverse_branches(mu)
            worst_pair = max(worst_pair, abs(lo * hi - 1.0))
    ok = worst <= 1e-8 and worst_pair <= 1e-12
    assert announce(
        2,
        "spectral mapping",
        ok,
        f"max scaled multiset deviation {worst:.3e}, "
        f"max branch-product deviation {worst_pair:.3e} over 200 trials",
    )


def test_criterion_3_resolvent_blocks():
    worst_res = 0.0
    worst_eq = 0.0
    for trial in range(200):
        gen = SeededGenerator(1003, trial)
        n = (2, 4, 8, 16)[trial % 4]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = build_foguel(v, t)
        eigs = np.clip(np.linalg.eigvalsh(t @ adjoint(t)), 0.0, None)
        hi = float(eigs[-1]) * 1.25 + 1.0
        gap_floor = max(1e-6, 0.01 * (1.0 + float(eigs[-1])))
        mu = gen.uniform(0.0, hi)
        while np.min(np.abs(eigs - mu)) < gap_floor:
            mu = gen.uniform(0.0, hi)
        lam_minus, lam_plus = inverse_branches(mu)
        lam = lam_plus if gen.uniform(0.0, 1.0) < 0.5 else lam_minus
        blocks = resolvent_blocks(op, lam)
        worst_res = max(worst_res, blocks.residual)
        worst_eq = max(
            worst_eq,
            operator_norm(
                adjoint(t) @ blocks.a - (lam - 1.0) * adjoint(v) @ adjoint(blocks.x)
            ),
        )

    # one-dimensional fixture, exact to 1e-14
    fixture = resolvent_blocks(build_foguel([[1]], [[1]]), 4.0)
    fixture_dev = max(
        abs(fixture.a[0, 0] + 0.6), abs(fixture.x[0, 0] + 0.2), abs(fixture.b[0, 0] + 0.4)
    )
    # regression: the flipped diagonal coefficient lam/(lam-1) must fail
    flipped_a = (4.0 / 3.0) * (1.0 / (1.0 - 2.25))
    flipped_fails = abs(flipped_a - (-0.6)) > 0.1

    ok = (
        worst_res <= 1e-8
        and worst_eq <= 1e-9
        and fixture_dev <= 1e-14
        and flipped_fails
    )
    assert announce(
        3,
        "resolvent blocks",
        ok,
        f"max residual {worst_res:.3e}, max off-diagonal relation residual "
        f"{worst_eq:.3e}, fixture deviation {fixture_dev:.3e}, "
        f"flipped-coefficient regression {'fails as required' if flipped_fails else 'DID NOT FAIL'}",
    )


def test_criterion_4_inverse_witnesses():
    worst_inv = 0.0
    worst_gram = 0.0
    worst_minus = 0.0
    for trial in range(200):
        gen = SeededGenerator(1004, trial)
        n = (1, 2, 4, 8)[trial % 4]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = build_foguel(v, t)
        t_norm = operator_norm(t)
        eye = np.eye(2 * n)

        m = foguel_inverse(op)
        worst_inv = max(
            worst_inv, operator_norm(op.matrix @ m - eye) / (1.0 + t_norm)
        )
        worst_gram = max(
            worst_gram,
            operator_norm(op.gram @ foguel_gram_inverse(op) - eye)
            / (1.0 + t_norm) ** 2,
        )
        s = np.linalg.svd(t, compute_uv=False)
        cond = float(s[0] / s[-1])
        witness = gram_minus_identity_inverse(op)
        worst_minus = max(
            worst_minus,
            operator_norm((op.gram - eye) @ witness - eye) / cond**2,
        )
    ok = worst_inv <= 1e-10 and worst_gram <= 1e-9 and worst_minus <= 1e-9
    assert announce(
        4,
        "inverse witnesses",
        ok,
        f"max scaled residuals: operator inverse {worst_inv:.3e}, "
        f"Gram inverse {worst_gram:.3e}, Gram-minus-identity {worst_minus:.3e} "
        f"over 200 trials each",
    )


def test_criterion_5_dilation_and_compression():
    worst_unitarity = 0.0
    violations = 0
    worst_excess = 0.0
    for trial in range(1000):
        gen = SeededGenerator(1005, trial)
        n = DIMS[trial % len(DIMS)]
        a = random_contraction(n, gen)
        t = ginibre(n, gen)
        dilation = halmos_dilation(a)
        worst_unitarity = max(
            worst_unitarity,
            operator_norm(adjoint(dilation) @ dilation - np.eye(2 * n)),
        )
        # ||R|| <= ||W|| <= Phi(||T||), with ||W|| of the lift from an SVD
        op = generalized_foguel(a, t)
        r_norm = operator_norm(op.matrix)
        w_norm = np.linalg.norm(lift_foguel(op).matrix, 2)
        closed = foguel_norm_closed(operator_norm(t))
        for excess in (r_norm - w_norm, w_norm - closed, r_norm - closed):
            worst_excess = max(worst_excess, excess)
            if excess > 1e-8:
                violations += 1

    # at dim 256 operator_norm takes ||W|| (order 1024) from its Lanczos path
    gen = SeededGenerator(1005, 1000)
    op = generalized_foguel(random_contraction(256, gen), ginibre(256, gen))
    lifted = lift_foguel(op).matrix
    svd_norm = np.linalg.norm(lifted, 2)
    lanczos_gap = abs(operator_norm(lifted) - svd_norm) / svd_norm

    # regression: the +A* sign variant is visibly non-unitary on a fixed draw
    a = random_contraction(5, SeededGenerator(123))
    defect_left = psd_sqrt(np.eye(5) - a @ adjoint(a))
    defect_right = psd_sqrt(np.eye(5) - adjoint(a) @ a)
    plus_variant = np.block([[a, defect_left], [defect_right, adjoint(a)]])
    plus_defect = operator_norm(adjoint(plus_variant) @ plus_variant - np.eye(10))

    ok = (
        worst_unitarity <= 1e-9
        and violations == 0
        and lanczos_gap <= 4 * 1024 * np.finfo(float).eps
        and plus_defect > 0.1
    )
    assert announce(
        5,
        "dilation and compression",
        ok,
        f"max unitarity residual {worst_unitarity:.3e} over 1000 contractions, "
        f"{violations} violations of ||R|| <= ||W|| <= Phi(||T||) "
        f"(worst excess {worst_excess:.3e}), order-1024 ||W|| off the SVD by "
        f"{lanczos_gap:.1e} relative, sign-variant defect {plus_defect:.3f}",
    )


def test_criterion_6_power_and_polynomial_bounds():
    worst_formula = 0.0
    worst_power_excess = 0.0
    for trial in range(200):
        gen = SeededGenerator(1006, trial)
        n = (1, 2, 4, 8)[trial % 4]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = generalized_foguel(v, t)
        r = op.matrix
        r_norm = operator_norm(r)
        t_norm = operator_norm(t)
        direct = np.eye(2 * n, dtype=complex)
        for power in range(1, 11):
            direct = direct @ r
            block = foguel_power(op, power)
            worst_formula = max(
                worst_formula,
                operator_norm(block - direct) / (1.0 + r_norm) ** power,
            )
            worst_power_excess = max(
                worst_power_excess,
                operator_norm(direct) - foguel_norm_closed(power * t_norm),
            )

    poly_violations = 0
    worst_slack = np.inf
    for trial in range(100):
        gen = SeededGenerator(1007, trial)
        n = (1, 2, 4)[trial % 3]
        a = random_contraction(n, gen)
        t = ginibre(n, gen)
        degree = 1 + trial % 8
        coeffs = gen.complex_gaussian(1, degree + 1)[0]
        p = Polynomial(coeffs)
        sup = p.boundary_sup()
        p = Polynomial(c / (sup * (1.0 + 1e-5)) for c in p.coeffs)
        report = verify_poly_bound(p, generalized_foguel(a, t))
        worst_slack = min(worst_slack, report.slack)
        if report.slack < -1e-8:
            poly_violations += 1

    equality = verify_poly_bound(Polynomial([0, 0, 1.0]), generalized_foguel([[1.0]], [[1.0]]))

    ok = (
        worst_formula <= 1e-9
        and worst_power_excess <= 1e-8
        and poly_violations == 0
        and abs(equality.slack) <= 1e-10
    )
    assert announce(
        6,
        "power and polynomial bounds",
        ok,
        f"max scaled power-formula deviation {worst_formula:.3e}, "
        f"max power-bound excess {worst_power_excess:.3e}, "
        f"{poly_violations} polynomial-bound violations "
        f"(min slack {worst_slack:.3e}), equality fixture slack {equality.slack:.3e}",
    )


def test_criterion_7_schur_route():
    disagreements = 0
    drawn = 0
    worst_closed_form = 0.0
    for trial in range(500):
        gen = SeededGenerator(1008, trial)
        n = (1, 2, 4, 8)[trial % 4]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = build_foguel(v, t)
        t_norm = operator_norm(t)
        level = None
        for _ in range(100):
            candidate = gen.uniform(1.05, foguel_norm_closed(t_norm) + 1.0)
            cert = foguel_positivity(op, candidate)
            band = 1e-9 * (1.0 + candidate**2)
            if min(abs(cert.min_eigenvalue), abs(cert.direct_min_eigenvalue)) > band:
                level = candidate
                break
        assert level is not None
        drawn += 1
        if cert.positive != (cert.direct_min_eigenvalue >= -cert.threshold):
            disagreements += 1

        kernel = adjoint(v) @ np.linalg.inv(level**2 * np.eye(n) - v @ adjoint(v)) @ v
        closed_form_dev = operator_norm(
            t @ kernel @ adjoint(t) - (t @ adjoint(t)) / (level**2 - 1.0)
        )
        worst_closed_form = max(
            worst_closed_form, closed_form_dev / max(t_norm**2, 1e-30)
        )

    worst_bisect = 0.0
    max_iterations = 0
    for trial in range(200):
        gen = SeededGenerator(1009, trial)
        n = (2, 4, 8)[trial % 3]
        v = haar_unitary(n, gen)
        t = ginibre(n, gen)
        op = build_foguel(v, t)
        result = norm_by_bisection(op, Tolerance(atol=1e-7))
        max_iterations = max(max_iterations, result.iterations)
        svd_norm = float(np.linalg.svd(op.matrix, compute_uv=False)[0])
        worst_bisect = max(
            worst_bisect,
            abs(result.value - svd_norm),
            abs(result.value - foguel_norm_closed(operator_norm(t))),
        )

    ok = (
        disagreements == 0
        and drawn == 500
        and worst_closed_form <= 1e-10
        and worst_bisect <= 1e-6
        and max_iterations <= 60
    )
    assert announce(
        7,
        "Schur route",
        ok,
        f"{disagreements} verdict disagreements over {drawn} draws, "
        f"max closed-form deviation {worst_closed_form:.3e}, "
        f"bisection within {worst_bisect:.3e} of norm and closed form "
        f"({max_iterations} iterations max)",
    )


def test_criterion_8_shift_truncation():
    gen = SeededGenerator(1010)
    t_small = ginibre(4, gen)
    t_norm = operator_norm(t_small)
    closed = foguel_norm_closed(t_norm)
    dims = (16, 64, 256)
    norms = []
    for big in dims:
        op = generalized_foguel(truncated_shift(big), embed_corner(t_small, big))
        norms.append(operator_norm(op.matrix))

    monotone_ok = all(
        norms[i] <= norms[i + 1] + 1e-12 for i in range(len(norms) - 1)
    )
    bounded_ok = all(value <= closed + 1e-10 for value in norms)
    gap = closed - norms[-1]

    ok = monotone_ok and bounded_ok
    assert announce(
        8,
        "shift truncation",
        ok,
        f"norms {[f'{v:.12f}' for v in norms]} at dims {list(dims)}, "
        f"bound {closed:.12f}, convergence gap at N=256: {gap:.3e} (informational)",
    )


def test_criterion_9_determinism():
    configs = [
        ExperimentConfig(experiment=name, dim=3, trials=2, seed=77)
        if name != "shift-convergence"
        else ExperimentConfig(
            experiment=name, dim=3, trials=2, seed=77, shift_dims=(8, 16)
        )
        for name in (
            "verify-norm",
            "verify-spectrum",
            "verify-resolvent",
            "verify-inverses",
            "verify-dilation",
            "verify-power",
            "verify-polynomial",
            "verify-schur",
            "shift-convergence",
        )
    ]
    all_ok = True
    for config in configs:
        first = emit_report(run_experiment(config))
        second = emit_report(run_experiment(config))
        csv_first = emit_report(run_experiment(config), "csv")
        csv_second = emit_report(run_experiment(config), "csv")
        all_ok = all_ok and first == second and csv_first == csv_second
    assert announce(
        9,
        "determinism",
        all_ok,
        f"byte-identical reruns for all {len(configs)} experiments (json-lines and csv)",
    )
