"""Generalized 2D Slepian functions on the unit disk.

Eigenfunctions of the weighted finite Fourier transform

    F_{nu,c} f(x) = integral_D e^{i c <x,y>} f(y) w_nu(y) dy,
    w_nu = (nu+1)/pi (1 - |y|^2)^nu,

computed through the commuting second-order differential operator: the
radial problem reduces to a symmetric tridiagonal eigenproblem in a Jacobi
polynomial basis, cross-validated against a Nystrom discretization of the
finite Hankel transform and the closed-form transform identities of disk
and two-variable Gegenbauer polynomials.
"""

__version__ = "0.1.0"

from .operators import (apply_adjoint_fourier, apply_finite_hankel, apply_L,
                        apply_weighted_fourier, kernel_K, nystrom_hankel_eigs)
from .orthopoly import disk_poly, disk_poly_norm, gegenbauer2d, gegenbauer_c, jacobi_sequence
from .quadrature import DiskRule, QuadratureRule, disk_rule, gauss_jacobi, radial_rule
from .slepian import (RadialMode, SlepianParams, build_spectral_matrix, chi0,
                      eval_phi, eval_psi, eval_R, solve_modes)
from .specfun import bessel_j, gamma_fn, j_script, j_small
from .transforms import (ClosedFormResult, disk_transform_closed,
                         gegenbauer2d_transform_closed, lemma1_rhs)

__all__ = [
    "apply_adjoint_fourier", "apply_finite_hankel", "apply_L",
    "apply_weighted_fourier", "kernel_K", "nystrom_hankel_eigs",
    "disk_poly", "disk_poly_norm", "gegenbauer2d", "gegenbauer_c", "jacobi_sequence",
    "DiskRule", "QuadratureRule", "disk_rule", "gauss_jacobi", "radial_rule",
    "RadialMode", "SlepianParams", "build_spectral_matrix", "chi0",
    "eval_phi", "eval_psi", "eval_R", "solve_modes",
    "bessel_j", "gamma_fn", "j_script", "j_small",
    "ClosedFormResult", "disk_transform_closed",
    "gegenbauer2d_transform_closed", "lemma1_rhs",
]
