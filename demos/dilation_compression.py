"""Why the (2,2) block of the unitary dilation carries a minus sign.

A contraction A sits inside the 2x2 block unitary
[[A, (I-AA*)^{1/2}], [(I-A*A)^{1/2}, -A*]]; flipping the sign to +A* makes
the defect cross-terms add instead of cancel and destroys unitarity.
Lifting [[A*, T], [0, A]] through the dilation then caps its norm by the
closed-form Foguel norm of ||T||.
"""

import numpy as np

import foguel as fg
from foguel.linalg import adjoint

gen = fg.SeededGenerator(55)
a = fg.random_contraction(4, gen)
t = fg.ginibre(4, gen)

print("=== sign of the dilation matters ===")
dilation = fg.halmos_dilation(a)
minus_defect = fg.operator_norm(adjoint(dilation) @ dilation - np.eye(8))

eye = np.eye(4)
plus_variant = np.block(
    [[a, fg.psd_sqrt(eye - a @ adjoint(a))],
     [fg.psd_sqrt(eye - adjoint(a) @ a), adjoint(a)]]
)
plus_defect = fg.operator_norm(adjoint(plus_variant) @ plus_variant - np.eye(8))
print(f"with -A* : unitarity defect {minus_defect:.3e}")
print(f"with +A* : unitarity defect {plus_defect:.3e}  <- not a dilation at all")

print()
print("=== compression bound ===")
op = fg.generalized_foguel(a, t)
w = fg.lift_foguel(op).matrix
t_norm = fg.operator_norm(t)
print(f"||T||                     : {t_norm:.6f}")
print(f"||R|| (contraction slot)  : {fg.operator_norm(op.matrix):.6f}")
print(f"||W|| (lifted, 16 x 16)   : {fg.operator_norm(w):.6f}")
print(f"closed-form cap           : {fg.foguel_norm_closed(t_norm):.6f}")

print()
print("the cap is attained exactly when the slot is unitary:")
v = fg.haar_unitary(4, gen)
r_unitary = fg.build_foguel(v, t).matrix
print(f"||R|| with unitary slot   : {fg.operator_norm(r_unitary):.12f}")
print(f"closed-form cap           : {fg.foguel_norm_closed(t_norm):.12f}")

print()
print("slack of the bound over 20 random contractions:")
for trial in range(20):
    sub = gen.substream(trial)
    a_i = fg.random_contraction(3, sub)
    t_i = fg.ginibre(3, sub)
    slack = fg.foguel_norm_closed(fg.operator_norm(t_i)) - fg.operator_norm(
        fg.generalized_foguel(a_i, t_i).matrix
    )
    print(f"  trial {trial:2d}: slack {slack:+.6f}")
