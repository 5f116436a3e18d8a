"""Recovering the Foguel norm from the n x n Schur complement alone.

M^2 I - R R* is PSD exactly when an n x n Schur complement is, which turns
"is ||R|| <= M?" into an eigenvalue sign question on the symbol side.  A
safeguarded Newton iteration on the complement's smallest eigenvalue then
pins the norm to a few ulps without ever forming a singular value, and two
positivity verdicts certify a bracket around it.
"""

import numpy as np

import foguel as fg

print("=== scalar certificates across levels ===")
op = fg.build_foguel([[1]], [[1]])
gold = fg.foguel_norm_closed(1.0)
for level in (1.2, 1.5, gold, 1.7, 2.0):
    cert = fg.foguel_positivity(op, level)
    print(
        f"  M = {level:.6f}: reduced min eig {cert.min_eigenvalue:+.6f}, "
        f"direct min eig {cert.direct_min_eigenvalue:+.6f}, "
        f"positive = {cert.positive}"
    )
print(f"(the sign flips at the norm {gold:.6f})")

print()
print("=== scalar criterion: t <= (M^2 - 1) / M ===")
for t, level in ((0.0, 1.5), (1.5, 2.0), (1.0, 1.5)):
    print(f"  t = {t}, M = {level}: {fg.scalar_criterion(t, level)}")

print()
print("=== Neumann series for the reduced kernel ===")
gen = fg.SeededGenerator(202)
v = fg.haar_unitary(4, gen)
t = fg.ginibre(4, gen)
op = fg.build_foguel(v, t)
level = 1.6
closed_form = (t @ t.conj().T) / (level**2 - 1.0)
print(f"{'order':>6} {'truncation error':>18}")
for order in (0, 2, 4, 8, 16, 32):
    err = fg.operator_norm(fg.neumann_eval(op, level, order) - closed_form)
    print(f"{order:>6} {err:>18.3e}")
print(f"(each extra order multiplies the error by 1/M^2 = {level**-2:.4f})")

print()
print("=== Schur-route norm vs eigenvalue norm ===")
result = fg.norm_by_bisection(op, fg.Tolerance(atol=1e-7))
direct = fg.operator_norm(op.matrix)
closed = fg.foguel_norm_closed(fg.operator_norm(t))
print(f"Newton         : {result.value:.15f}  ({result.iterations} levels)")
print(f"eigenvalue norm: {direct:.15f}  (difference {abs(result.value - direct):.1e})")
print(f"closed form    : {closed:.15f}  (difference {abs(result.value - closed):.1e})")
print(f"certified      : positivity fails at {result.lower:.9f}, holds at {result.upper:.9f}")
