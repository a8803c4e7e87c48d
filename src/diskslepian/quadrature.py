"""Gauss-Jacobi quadrature, its map to the radial weight, and the polar disk rule.

Every rule comes from the Jacobi matrix of the closed-form Jacobi recurrence
(Golub-Welsch), without its eigenvectors.  The recurrence is
``orthopoly.jacobi_recurrence``, the one the spectral solver builds its
matrix from:

* nodes are the eigenvalues (``numpy.linalg.eigvalsh``), refined by one
  Newton step on p_n(x) = 0;
* weights are Christoffel numbers, w_j = 1 / sum_{k<n} p_k(x_j)^2, a sum of
  positive terms that keeps the small endpoint weights to full relative
  accuracy (the squared first eigenvector component of a dense solver
  does not);
* p_k and p_n' are evaluated in the orthonormal recurrence, which stays
  O(1) on the interval where the monic one underflows like 4^-n on (0,1).

Every radial integral of the package has the form

    integral_0^1 t^(2 beta + 1) p(t^2) (1-t^2)^nu dt

(the Jacobi basis P_k^(N,nu)(1 - 2t^2), Hankel kernels and eigenfunctions
all carry a power of t times a series in t^2).  Under u = 2t^2 - 1 it is
2^(-nu-beta-2) integral_{-1}^1 p((1+u)/2) (1-u)^nu (1+u)^beta du, so the
radial rule is the Gauss-Jacobi (nu, beta) rule mapped to t, exact for
deg p <= 2n-1.

Rules are cached and immutable; evaluation is pure.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import SymTridiagonal
from .orthopoly import jacobi_recurrence

__all__ = ["QuadratureRule", "DiskRule", "gauss_jacobi", "radial_rule", "disk_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for a weighted 1D integral on ``domain``.

    A radial rule records the ``beta`` of its integrand class
    t^(2 beta + 1) p(t^2); a rule on (-1, 1) has beta None.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple
    beta: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes/weights must be matching 1D arrays")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        lo, hi = self.domain
        if nodes[0] <= lo or nodes[-1] >= hi:
            raise ValueError("nodes must lie strictly inside the domain")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.nodes)

    def integrate(self, f):
        """Integrate a callable (vectorized over ndarray input) or an array
        of integrand values at the nodes."""
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return float(np.dot(self.weights, vals))


def _orthonormal_sweep(x, alpha, sqrt_beta, mass):
    """Run the orthonormal recurrence at x up to degree n = len(alpha).

    Returns (q, dq, s, ds): q = sqrt(beta_n) p_n(x) and its derivative, whose
    ratio is the Newton step on p_n, and s = sum_{k<n} p_k(x)^2 with its
    derivative.
    """
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    s, ds = p * p, np.zeros_like(x)
    for k in range(len(alpha)):
        b_k = sqrt_beta[k - 1] if k else 0.0
        q = (x - alpha[k]) * p - b_k * p_prev
        dq = p + (x - alpha[k]) * dp - b_k * dp_prev
        if k + 1 == len(alpha):
            return q, dq, s, 2 * ds
        p_prev, p = p, q / sqrt_beta[k]
        dp_prev, dp = dp, dq / sqrt_beta[k]
        s += p * p
        ds += p * dp


def _golub_welsch(alpha, beta):
    """Gauss rule on (-1,1) from the arrays of monic recurrence coefficients
    alpha_k, beta_k (k>=1) and the mass beta_0.

    The Newton step h is of the size of the eigensolver's roundoff, so the
    Christoffel sum is carried to the refined node to first order, s - h s',
    instead of being re-evaluated at that node rounded to double: next to a
    singular endpoint, as of (1-x)^nu with nu < 0, the sum varies on the
    scale of 1 - x, and re-evaluation puts 3.6e-13 into the mass of
    gauss_jacobi(240, -0.9, 0) (4e-15 when carried).
    """
    sqrt_beta = np.sqrt(beta[1:])
    nodes = np.linalg.eigvalsh(SymTridiagonal(alpha, sqrt_beta).to_dense())
    q, dq, s, ds = _orthonormal_sweep(nodes, alpha, sqrt_beta, beta[0])
    h = q / dq
    return QuadratureRule(nodes - h, 1.0 / (s - h * ds), (-1.0, 1.0))


@lru_cache(maxsize=256)
def gauss_jacobi(n, a, b):
    """n-point Gauss-Jacobi rule on (-1,1) for weight (1-u)^a (1+u)^b."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= -1 or b <= -1:
        raise ValueError("Jacobi weight needs a > -1 and b > -1")
    return _golub_welsch(*jacobi_recurrence(n, float(a), float(b)))


@lru_cache(maxsize=256)
def radial_rule(n, nu, beta=0.0):
    """n-point rule on (0,1) for the weight (1-t^2)^nu, nu > -1, beta > -1.

    Exact (to roundoff) for t^(2 beta + 1) p(t^2) with p a polynomial of
    degree <= 2n-1: the Gauss-Jacobi (nu, beta) rule mapped by
    u = 2t^2 - 1, with weights 2^(-nu-beta-2) w_j / t_j^(2 beta + 1).
    ``beta`` names the integrand class, not an accuracy knob.  Products of
    T basis functions, Hankel kernels and eigenfunctions of integer order N
    are t^(2N+1) p(t^2), which beta = 0 covers; the Hankel transform of
    half-integer order a of t^(a+1/2) p(t^2) needs beta = a.
    """
    jac = gauss_jacobi(n, nu, beta)
    t = np.sqrt((1 + jac.nodes) / 2)
    return QuadratureRule(t, 2.0 ** (-nu - beta - 2) * jac.weights / t ** (2 * beta + 1),
                          (0.0, 1.0), float(beta))


@dataclass(frozen=True)
class DiskRule:
    """Tensor polar rule for the normalized disk weight
    w_nu = (nu+1)/pi * (1 - x^2 - y^2)^nu.

    ``weights`` already contain the radial measure factor r, the angular step
    and the (nu+1)/pi normalization, so a plain weighted sum of integrand
    values over (xs, ys) [or (rs, thetas)] gives the w_nu-integral over the
    disk.  Applying the rule to f = 1 returns 1 to roundoff.
    """

    radial: QuadratureRule
    thetas: np.ndarray
    nu: float
    rs: np.ndarray
    angles: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        """Integrate f(x, y) (vectorized) against w_nu over the unit disk."""
        return complex(np.sum(self.weights * f(self.xs, self.ys)))


@lru_cache(maxsize=64)
def disk_rule(n_r, n_theta, nu):
    """Polar tensor rule: n_r radial Gauss points x n_theta uniform angles."""
    if n_r < 1 or n_theta < 1:
        raise ValueError("rule sizes must be >= 1")
    # after the angular sum a polynomial in (x, y) is one in r^2, and the
    # measure r dr makes the radial integrand r p(r^2): the beta = 0 class
    rad = radial_rule(n_r, nu)
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    rs, angles = np.meshgrid(rad.nodes, thetas, indexing="ij")
    rs = rs.ravel()
    angles = angles.ravel()
    ws = (2.0 * (nu + 1) / n_theta) * np.repeat(rad.weights * rad.nodes, n_theta)
    xs = rs * np.cos(angles)
    ys = rs * np.sin(angles)
    for arr in (thetas, rs, angles, xs, ys, ws):
        arr.setflags(write=False)
    return DiskRule(rad, thetas, float(nu), rs, angles, xs, ys, ws)
