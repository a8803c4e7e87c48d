"""Correctness oracles for the benchmark, independent of ``diskslepian``.

Nothing here imports the package under test: the quadrature rule comes from
``scipy.special.roots_jacobi`` and the Bessel kernel from
``scipy.special.jv``, so a defect shared by the library's own quadrature,
special functions or eigensolvers cannot hide in the gate.

Radial rule.  With u = 2 t^2 - 1 the weight (1 - t^2)^nu dt on (0, 1) becomes
(1 - u)^nu du / (2^nu 4 t), so the Gauss-Jacobi rule (u_i, w_i) for
(1 - u)^nu (1 + u)^0 gives nodes t_i = sqrt((1 + u_i) / 2) and weights
w_i / (2^nu 4 t_i).  Products of two radial eigenfunctions divided by t are
polynomials in u, so the rule integrates a Gram matrix exactly.

Eigenvalues.  The finite Hankel operator with kernel sqrt(c x t) J_N(c x t)
on that weight has eigenvalues sqrt(c) mu_{N,n}.  Its plain-double symmetric
Nystrom matrix sqrt(w_i) K(t_i, t_j) sqrt(w_j) at 400 and 600 nodes gives
two estimates; a rank counts as resolved where they agree to 1e-11 relative
and the value is at least 1e-9 of the largest, and only resolved ranks are
compared with the solver.
"""

import functools
import math

import numpy as np
from scipy.special import jv, roots_jacobi

NODES = (400, 600)
AGREE_RTOL = 1e-11
FLOOR = 1e-9
MU_RTOL = 1e-7
LAMBDA_SLACK = 1e-12
GRAM_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def radial_rule(n, nu):
    """n-point Gauss rule on (0, 1) for the weight (1 - t^2)^nu; the arrays
    are shared between callers and must not be written to."""
    u, w = roots_jacobi(n, nu, 0.0)
    t = np.sqrt((1 + u) / 2)
    return t, w / (2.0 ** nu * 4 * t)


def hankel_magnitudes(nu, c, N, n):
    """|eigenvalues| of the n-node Nystrom matrix, descending."""
    t, w = radial_rule(n, nu)
    i, j = np.tril_indices(n)  # eigvalsh reads only the lower triangle
    z = c * t[i] * t[j]
    m = np.zeros((n, n))
    m[i, j] = np.sqrt(w[i] * w[j] * z) * jv(N, z)
    return np.sort(np.abs(np.linalg.eigvalsh(m, UPLO="L")))[::-1]


class MuOracle:
    """Resolved |sqrt(c) mu| values for one (nu, c, N), by rank."""

    def __init__(self, nu, c, N):
        coarse, fine = (hankel_magnitudes(nu, c, N, n) for n in NODES)
        fine = fine[:len(coarse)]
        agree = np.abs(coarse - fine) <= AGREE_RTOL * fine
        self.values = fine
        self.resolved = agree & (fine >= FLOOR * fine[0])

    def check(self, c, mus, lams):
        """Gate one solve: (passed, worst relative mu error, max |lambda|).

        Sorted |sqrt(c) mu| is compared rank by rank with the resolved oracle
        values at relative tolerance MU_RTOL; any |lambda| above 1 fails.
        """
        got = np.sort(np.abs(np.sqrt(c) * np.asarray(mus, dtype=float)))[::-1]
        k = min(len(got), len(self.values))
        mask = self.resolved[:k]
        want = self.values[:k][mask]
        err = float(np.max(np.abs(got[:k][mask] - want) / want)) if want.size else 0.0
        lam_max = float(np.max(np.abs(lams)))
        # NaN compares false, so a non-finite mu or lambda fails the gate
        passed = bool(err <= MU_RTOL and lam_max <= 1 + LAMBDA_SLACK)
        return passed, err, lam_max


class GramRule:
    """Oracle rule for the radial and polar Gram matrices of one nu."""

    def __init__(self, n, nu):
        self.nu = nu
        self.nodes, self.weights = radial_rule(n, nu)

    def radial_gram_row(self, row, table):
        """<phi_row, phi_j> for every j, from values at the rule nodes."""
        return (table * self.weights) @ row

    def polar_gram_row(self, angular, r_table, n_theta):
        """<psi, psi_j>_nu for psi_j = R_j e^{i N theta} / sqrt(2 (nu + 1)).

        ``angular[i]`` is sum_k psi(t_i, theta_k) e^{-i N theta_k} over
        n_theta equispaced angles, and ``r_table[j, i]`` is R_j(t_i).
        """
        scale = math.sqrt(2 * (self.nu + 1)) / n_theta
        return (r_table * (self.weights * self.nodes)) @ angular * scale


def gram_error(row, index):
    """max |row - e_index|; NaN maps to infinity so it can never pass."""
    dev = np.abs(np.asarray(row) - np.eye(len(row))[index])
    return math.inf if not np.all(np.isfinite(dev)) else float(np.max(dev))
