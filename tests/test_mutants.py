"""Plausible wrong variants of the package: each must fail its experiment's report.

A mutant is put in with ``monkeypatch`` and run through the CLI, so the
test sees what a user would: exit code 1 and ``"pass": false`` records
with no reason code, not a crash (exit 4) and not a pass.  Exit 3 is
pinned only where the library's own certificate refuses the mutant's
result as an internal consistency error.
"""

import dataclasses
import inspect
import json
import textwrap

import numpy as np
import pytest

from foguel import dilation as dil
from foguel import experiments, models, schur, spectral
from foguel.cli import main


def _records(argv, capsys):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    return code, [json.loads(line) for line in lines]


def _assert_every_trial_fails(argv, capsys):
    code, records = _records(argv, capsys)
    assert code == 1
    trials, aggregate = records[:-1], records[-1]
    assert not aggregate["pass"] and aggregate["pass_count"] == 0
    assert all(not r["pass"] and r["reason"] == "" for r in trials)
    return records


SCHUR_ARGV = ["verify-schur", "--dim", "8", "--trials", "20", "--seed", "5"]
POWER_ARGV = ["verify-power", "--dim", "8", "--trials", "5", "--seed", "5"]
POLYNOMIAL_ARGV = ["verify-polynomial", "--dim", "8", "--trials", "5", "--seed", "5"]
SPECTRUM_ARGV = ["verify-spectrum", "--dim", "8", "--trials", "5", "--seed", "5"]


def test_schur_route_norm_off_by_a_relative_1e_8_fails_verify_schur(monkeypatch, capsys):
    code, records = _records(SCHUR_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    original = schur.norm_by_bisection

    def scaled(op, tol):
        result = original(op, tol)
        return dataclasses.replace(result, value=result.value * (1.0 + 1e-8))

    monkeypatch.setattr(schur, "norm_by_bisection", scaled)
    _assert_every_trial_fails(SCHUR_ARGV, capsys)


def test_power_step_with_a_shifted_offdiagonal_block_fails_verify_power(monkeypatch, capsys):
    code, records = _records(POWER_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    original = dil._power_step

    def shifted(op, previous):
        block = original(op, previous)
        k = op.dim
        block[:k, k:] += 1e-6 * np.eye(k)  # D_n + 1e-6 I
        return block

    monkeypatch.setattr(dil, "_power_step", shifted)
    _assert_every_trial_fails(POWER_ARGV, capsys)


def _mutant(function, edits: tuple) -> dict:
    """The namespace of ``function``'s source with each ``(right, wrong)`` edit made once."""
    source = textwrap.dedent(inspect.getsource(function))
    for right, wrong in edits:
        assert source.count(right) == 1
        source = source.replace(right, wrong)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source, namespace)
    return namespace


def test_conjugated_upper_left_coefficients_fail_verify_polynomial(monkeypatch, capsys):
    code, records = _records(POLYNOMIAL_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    # (sum_j a_j A^j)* = sum_j conj(a_j) (A*)^j, the upper-left block of
    # p(R) with the coefficients the power expansion does not give
    namespace = _mutant(dil.poly_apply, (
        ("conj_sum = p.coeffs[0].conjugate() *", "conj_sum = p.coeffs[0] *"),
        ("conj_sum += coeff.conjugate() *", "conj_sum += coeff *"),
    ))
    monkeypatch.setattr(dil, "poly_apply", namespace["poly_apply"])
    _assert_every_trial_fails(POLYNOMIAL_ARGV, capsys)


@pytest.mark.parametrize(
    "edit",
    [
        # Horner in m^(s-1) instead of m^s
        ("result @ powers[s] +", "result @ powers[s - 1] +"),
        # every chunk below the top one drops its last coefficient
        ("chunk(lo, lo + s - 1)", "chunk(lo, lo + s - 2)"),
    ],
    ids=["horner-step-by-m-to-the-s-minus-1", "chunk-drops-its-last-coefficient"],
)
def test_paterson_stockmeyer_mutants_fail_verify_polynomial(monkeypatch, capsys, edit):
    code, records = _records(POLYNOMIAL_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    namespace = _mutant(dil.Polynomial.at_matrix, (edit,))
    monkeypatch.setattr(dil.Polynomial, "at_matrix", namespace["at_matrix"])
    _assert_every_trial_fails(POLYNOMIAL_ARGV, capsys)


def test_newton_iteration_that_never_moves_fails_verify_schur(monkeypatch, capsys):
    argv = ["verify-schur", "--dim", "3", "--trials", "20", "--seed", "5"]
    code, records = _records(argv, capsys)
    assert code == 0 and records[-1]["pass"]

    # the value stays at the start, closed * (1 + START_OFFSET): at dim 3 the
    # offset lies inside the certified bracket and bisection-vs-closed reads
    # it, at dim 8 it exceeds tol.atol / 2 and the closing certificate refuses
    namespace = _mutant(schur.norm_by_bisection, (
        ("step = float(eigvals[0]) / slope", "step = 0.0"),
    ))
    monkeypatch.setattr(schur, "norm_by_bisection", namespace["norm_by_bisection"])
    records = _assert_every_trial_fails(argv, capsys)
    base = records[-1]["config"]["tol"]
    assert all(r["deviation"] >= base * schur.START_OFFSET / 1e-10 for r in records)

    assert main(SCHUR_ARGV) == 3
    assert "positivity holds at the lower end" in capsys.readouterr().err


def _mutant_property(monkeypatch, name: str, edit: tuple) -> None:
    """Put in ``FoguelOperator.<name>`` with ``edit`` made once, still a cached property."""
    prop = _mutant(vars(models.FoguelOperator)[name].func, (edit,))[name]
    prop.__set_name__(models.FoguelOperator, name)
    monkeypatch.setattr(models.FoguelOperator, name, prop)


def _mutant_runner(monkeypatch, experiment: str, edit: tuple) -> None:
    """Put in ``experiment``'s runner with ``edit`` made once."""
    spec = experiments.EXPERIMENTS[experiment]
    runner = _mutant(spec.runner, (edit,))[spec.runner.__name__]
    mutated = dataclasses.replace(spec, runner=runner)
    monkeypatch.setitem(experiments.EXPERIMENTS, experiment, mutated)


def test_a_wrong_branch_pair_fails_verify_spectrum(monkeypatch, capsys):
    code, records = _records(SPECTRUM_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    # lam_minus * lam_plus stays 1, so branch-product cannot see it; the
    # predicted multiset comes from the same formula and can
    namespace = _mutant(spectral._branches, (
        ("return 1.0 / lam_plus, lam_plus", "return 0.25 / lam_plus, 4.0 * lam_plus"),
    ))
    monkeypatch.setattr(spectral, "_branches", namespace["_branches"])
    _assert_every_trial_fails(SPECTRUM_ARGV, capsys)


def test_power_step_off_by_one_in_the_offdiagonal_block_fails_verify_power(monkeypatch, capsys):
    code, records = _records(POWER_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    # D_n = A* D_(n-1) + T A^n, one power of A too many
    namespace = _mutant(dil._power_step, (("op.t @ a_prev", "op.t @ a_pow"),))
    monkeypatch.setattr(dil, "_power_step", namespace["_power_step"])
    _assert_every_trial_fails(POWER_ARGV, capsys)


def test_power_bound_without_its_factor_n_fails_verify_power(monkeypatch, capsys):
    code, records = _records(POWER_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    # ||R^n|| held against Phi(||T||) instead of Phi(n ||T||)
    _mutant_runner(monkeypatch, "verify-power", (
        "foguel_norm_closed(n * t_norm)", "foguel_norm_closed(t_norm)"
    ))
    _assert_every_trial_fails(POWER_ARGV, capsys)


def test_gram_corner_without_the_symbol_gram_is_refused_by_verify_schur(monkeypatch, capsys):
    code, records = _records(SCHUR_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    # V* V in place of V* V + T T*: the Schur route then contradicts its own bracket
    _mutant_property(monkeypatch, "gram_corner", (
        "adjoint(self.v) @ self.v + self.t @ adjoint(self.t)", "adjoint(self.v) @ self.v"
    ))
    assert main(SCHUR_ARGV) == 3
    assert "internal consistency error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [POWER_ARGV, POLYNOMIAL_ARGV], ids=lambda argv: argv[0])
def test_direct_route_matrix_with_v_in_place_of_v_star_fails(monkeypatch, capsys, argv):
    code, records = _records(argv, capsys)
    assert code == 0 and records[-1]["pass"]

    # R = [[V, T], [0, V]]: the block calculus forms its blocks from op.v and
    # op.t, not from op.matrix, so the two routes disagree
    _mutant_property(monkeypatch, "matrix", (
        "block2(adjoint(self.v), self.t, None, self.v)", "block2(self.v, self.t, None, self.v)"
    ))
    _assert_every_trial_fails(argv, capsys)
