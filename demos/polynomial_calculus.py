"""Powers and polynomials of [[A*, T], [0, A]] stay upper triangular.

The n-th power has off-diagonal block D_n = sum_j (A*)^j T A^{n-1-j}, so a
polynomial p with sup-norm at most 1 on the disk obeys
||p(R)|| <= Phi(||p~'||_inf ||T||) where p~ takes absolute coefficients and
Phi is the closed-form Foguel norm.  The power case p = z^n recovers the
linear-in-n growth estimate for ||R^n||.
"""

import numpy as np

import foguel as fg

print("=== scalar powers: R = [[1, 1], [0, 1]] ===")
scalar = fg.generalized_foguel([[1.0]], [[1.0]])
for n in (1, 2, 3, 5, 8):
    block = fg.foguel_power(scalar, n)
    print(f"R^{n} = {block.real.astype(int).tolist()}  (off-diagonal grows like n)")

print()
print("=== power norm estimate with a unitary slot ===")
gen = fg.SeededGenerator(88)
v = fg.haar_unitary(4, gen)
t = fg.ginibre(4, gen)
t_norm = fg.operator_norm(t)
r = fg.build_foguel(v, t).matrix
print(f"{'n':>3} {'||R^n||':>12} {'Phi(n ||T||)':>14} {'slack':>10}")
power = np.eye(8, dtype=complex)
for n in range(1, 9):
    power = power @ r
    value = fg.operator_norm(power)
    bound = fg.foguel_norm_closed(n * t_norm)
    print(f"{n:>3} {value:>12.6f} {bound:>14.6f} {bound - value:>10.6f}")

print()
print("=== the polynomial bound, equality case ===")
report = fg.verify_poly_bound(fg.Polynomial([0, 0, 1.0]), scalar)
print(f"p(z) = z^2 at the scalar pair: ||p(R)|| = {report.applied_norm:.12f}")
print(f"bound Phi(2)                 = {report.bound:.12f}")
print(f"slack                        = {report.slack:.2e}  (sharp)")

print()
print("=== random polynomials against random contractions ===")
print(f"{'degree':>7} {'sup|p|':>8} {'||p(R)||':>10} {'bound':>10} {'slack':>10}")
for trial in range(8):
    sub = gen.substream(trial)
    a = fg.random_contraction(3, sub)
    t_i = fg.ginibre(3, sub)
    degree = 2 + trial
    p = fg.Polynomial(sub.complex_gaussian(1, degree + 1)[0])
    deflate = p.boundary_sup() * (1 + 1e-5)
    p = fg.Polynomial(c / deflate for c in p.coeffs)
    rep = fg.verify_poly_bound(p, fg.generalized_foguel(a, t_i))
    print(
        f"{degree:>7} {rep.sup_norm:>8.5f} {rep.applied_norm:>10.5f} "
        f"{rep.bound:>10.5f} {rep.slack:>10.5f}"
    )
