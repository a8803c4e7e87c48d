"""Closed-form transform identities, cross-checked against quadrature.

Three families of closed forms are verified here end to end:

  * the finite Hankel transform of the Jacobi radial basis,
  * the weighted Fourier transform of disk (Zernike-type) polynomials,
  * the weighted Fourier transform of two-variable Gegenbauer polynomials.

The 2D prefactors ship in closed form, C_{n,m} = i^(n+m) Gamma(nu+2) and
Z_{n,k} = i^n 2^(nu+1) Gamma(nu+2) (2nu+1)_k / k!, since the printed
constants fail their own zero-index consistency anchor; every result logs
the shipped/printed ratio so the discrepancy stays visible.
"""

import math

from diskslepian.operators import apply_finite_hankel, apply_weighted_fourier
from diskslepian.orthopoly import disk_poly, gegenbauer2d, jacobi_sequence
from diskslepian.quadrature import disk_rule, radial_rule
from diskslepian.transforms import (disk_transform_closed, gegenbauer2d_transform_closed,
                                    lemma1_rhs)

# --- finite Hankel transform of a Jacobi basis element -----------------
alpha, beta, n, x = 1.0, 0.5, 2, 3.7
rule = radial_rule(220, beta)
f = lambda t: t ** (alpha + 0.5) * jacobi_sequence(n, alpha, beta, 1 - 2 * t * t)[n]
lhs = apply_finite_hankel(beta, 1.0, alpha, f, x, rule)
rhs = lemma1_rhs(alpha, beta, n, x)
print("finite Hankel transform of the Jacobi basis:")
print(f"  quadrature  {lhs:+.15e}")
print(f"  closed form {rhs:+.15e}   (rel diff {abs(lhs - rhs) / abs(rhs):.1e})\n")

# --- disk polynomial image ---------------------------------------------
nu, nn, mm = 1.0, 2, 1
drule = disk_rule(150, 256, nu)
rho, vth = 1.4, 0.8
y = (rho * math.cos(vth), rho * math.sin(vth))
quad = apply_weighted_fourier(nu, 1.0, disk_poly(nn, mm, nu, drule.rs, drule.angles), y, drule)
closed = disk_transform_closed(nu, nn, mm, rho, vth)
print(f"disk polynomial D_{{{nn},{mm}}} transform at rho={rho}, theta={vth}:")
print(f"  quadrature  {quad:+.12e}")
print(f"  closed form {closed.value:+.12e}   (C = i^{nn + mm} Gamma(nu+2))")
print(f"  shipped/printed constant ratio: {closed.discrepancy_log:.6g}\n")

# --- two-variable Gegenbauer image --------------------------------------
nn, kk = 3, 1
quad = apply_weighted_fourier(nu, 1.0, gegenbauer2d(nn, kk, nu + 0.5, drule.xs, drule.ys), y, drule)
closed = gegenbauer2d_transform_closed(nu, nn, kk, rho, vth)
print(f"two-variable Gegenbauer P_{{{nn},{kk}}} transform at the same point:")
print(f"  quadrature  {quad:+.12e}")
print(f"  closed form {closed.value:+.12e}   "
      f"(Z = i^{nn} 2^(nu+1) Gamma(nu+2) (2nu+1)_{kk} / {kk}!)")
print(f"  shipped/printed constant ratio: {closed.discrepancy_log:.6g}")
