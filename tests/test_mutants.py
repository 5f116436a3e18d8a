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
from foguel import schur
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

    def shifted(a, t, previous):
        block = original(a, t, previous)
        k = a.shape[0]
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
