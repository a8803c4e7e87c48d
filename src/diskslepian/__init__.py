"""Generalized 2D Slepian functions on the unit disk.

Eigenfunctions of the weighted finite Fourier transform

    F_{nu,c} f(x) = integral_D e^{i c <x,y>} f(y) w_nu(y) dy,
    w_nu = (nu+1)/pi (1 - |y|^2)^nu,

computed through the commuting second-order differential operator: the
radial problem reduces to a symmetric tridiagonal eigenproblem in a Jacobi
polynomial basis, cross-validated against a Nystrom discretization of the
finite Hankel transform and the closed-form transform identities of disk
and two-variable Gegenbauer polynomials.

Re-exported here: the solver and the polynomials.  Closed forms: transforms;
Bessel: specfun; rules: quadrature; oracles: operators; suites: verification.
"""

__version__ = "0.1.0"

from .orthopoly import disk_poly, disk_poly_norm, gegenbauer2d, gegenbauer_c, jacobi_sequence
from .slepian import (RadialMode, SlepianParams, build_spectral_matrix, chi0,
                      eval_phi, eval_psi, eval_R, solve_modes)

__all__ = [
    "disk_poly", "disk_poly_norm", "gegenbauer2d", "gegenbauer_c", "jacobi_sequence",
    "RadialMode", "SlepianParams", "build_spectral_matrix", "chi0",
    "eval_phi", "eval_psi", "eval_R", "solve_modes",
]
