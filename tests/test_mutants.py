"""Plausible wrong variants of the package: each must fail its experiment's report.

A mutant is put in with ``monkeypatch`` and run through the CLI, so the
test sees what a user would: exit code 1 and ``"pass": false`` records
with no reason code, not a crash (exit 3 or 4) and not a pass.
"""

import dataclasses
import json

from foguel import schur
from foguel.cli import main


def _records(argv, capsys):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    return code, [json.loads(line) for line in lines]


SCHUR_ARGV = ["verify-schur", "--dim", "8", "--trials", "20", "--seed", "5"]


def test_schur_route_norm_off_by_a_relative_1e_8_fails_verify_schur(monkeypatch, capsys):
    code, records = _records(SCHUR_ARGV, capsys)
    assert code == 0 and records[-1]["pass"]

    original = schur.norm_by_bisection

    def scaled(op, tol):
        result = original(op, tol)
        return dataclasses.replace(result, value=result.value * (1.0 + 1e-8))

    monkeypatch.setattr(schur, "norm_by_bisection", scaled)
    code, records = _records(SCHUR_ARGV, capsys)
    trials, aggregate = records[:-1], records[-1]
    assert code == 1
    assert not aggregate["pass"] and aggregate["pass_count"] == 0
    assert all(not r["pass"] and r["reason"] == "" for r in trials)
