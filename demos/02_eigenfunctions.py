"""Evaluating the radial and full 2D eigenfunctions.

phi_{N,n}(x) = sqrt(x) R_{N,n}(x) is the radial eigenfunction of the finite
Hankel transform, orthonormal on (0,1) against (1-x^2)^nu; the 2D function
psi_{N,n}(r, theta) ~ R_{N,n}(r) e^{i N theta} is orthonormal on the disk
against the normalized weight.  Both evaluators accept numpy arrays.
"""

import numpy as np

from diskslepian import SlepianParams, eval_phi, eval_psi, solve_modes
from diskslepian.operators import apply_finite_hankel
from diskslepian.quadrature import radial_rule

nu, c, N = 0.5, 2.0, 1
params = SlepianParams(nu=nu, c=c, N=N)
modes = solve_modes(params, 4)

xs = np.linspace(0.1, 1.0, 10)
print("phi_{1,n}(x) on a coarse grid:")
print("  x:     " + "  ".join(f"{x:8.2f}" for x in xs))
for m in modes:
    vals = eval_phi(m, params, xs)
    print(f"  n={m.n}:  " + "  ".join(f"{v:8.4f}" for v in vals))

# orthonormality under the radial rule
rule = radial_rule(200, nu)
vals = np.array([eval_phi(m, params, rule.nodes) for m in modes])
gram = (vals * rule.weights) @ vals.T
print(f"\nradial Gram deviation from identity: {np.max(np.abs(gram - np.eye(4))):.2e}")

# the defining integral eigenrelation, checked pointwise
m0 = modes[0]
x0 = 0.37
hv = apply_finite_hankel(nu, c, N, lambda t: eval_phi(m0, params, t), x0, rule)
print(f"H phi (x0)          = {hv:+.12e}")
print(f"sqrt(c) mu phi (x0) = {np.sqrt(c) * m0.mu * eval_phi(m0, params, x0):+.12e}")

# psi on a small polar patch: constant modulus along theta, phase e^{iN theta}
thetas = np.linspace(0, 2 * np.pi, 5, endpoint=False)
psi = eval_psi(m0, params, np.full_like(thetas, 0.6), thetas)
print("\npsi_{1,0}(0.6, theta):")
for t, v in zip(thetas, psi):
    print(f"  theta = {t:5.2f}:  {v.real:+.6f} {v.imag:+.6f}j   |psi| = {abs(v):.6f}")
