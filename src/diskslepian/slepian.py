"""Spectral solver for the generalized 2D Slepian radial eigenproblem.

The radial eigenfunctions phi_{N,n} of the finite Hankel transform
H_{c,N,nu} are computed Bouwkamp-style: expand in the zero-bandwidth
eigenbasis

    T_{N,k}(x) = x^(N+1/2) * N! k!/(k+N)! * P_k^{(N,nu)}(1 - 2 x^2),

in which the commuting differential operator Lambda = -L_{c,N,nu} acts as a
symmetric tridiagonal matrix (diagonal: zero-bandwidth eigenvalue plus
c^2 * b_k; off-diagonal: c^2 * a_k scaled by the basis norms).  Eigenvalues
chi are the Sturm-Liouville spectrum; eigenvectors are the expansion
coefficients A_k in the orthonormalized basis T_k / sqrt(h_k).

Sign convention: the paper-facing operator L satisfies L T = -chi T at
c = 0, so the solver works with Lambda = -L whose spectrum is positive and
increasing; all reported chi refer to Lambda.

The integral eigenvalue mu_{N,n} (H phi = sqrt(c) mu phi) follows in
closed form from the coefficient vector (Slepian's coefficient-ratio
identity).  Let x -> 0 in the eigenrelation.  On the left, script-J_N(z) ~
z^(N+1/2) / (2^N N!), so H phi(x) ~ (c x)^(N+1/2) / (2^N N!) times the
moment <x^(N+1/2), phi>_nu; x^(N+1/2) = T_{N,0} is orthogonal to every
higher basis function, so that moment is A_0 sqrt(h_0).  On the right,
P_k^{(N,nu)}(1) = (k+N)!/(N! k!) gives phi(x) ~ x^(N+1/2) sum_k A_k h_k^(-1/2).
With h_0 = N! Gamma(nu+1) / (2 Gamma(N+nu+2)) this yields

    mu = c^N Gamma(nu+1) A_0
         / (2^(N+1) Gamma(N+nu+2) sqrt(h_0) sum_k A_k h_k^(-1/2)),

with the prefactor assembled in log space.  A_0 is carried up from the
peak coefficient through the leading rows of the tridiagonal system, since
for small c and high n it lies far below the roundoff of the eigenvector.
It needs no quadrature and no Bessel function, so it holds for every c the
truncation reaches.  The 2D
eigenvalue is lambda = 2 (nu+1) i^N mu; |lambda| <= 1 because the transform
is a contraction under a probability weight, and a solve that breaks this
raises ConvergenceError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ConvergenceError, SymTridiagonal, symtri_eigen
from .orthopoly import TBasisIndex, t_norm_sq, x2_recurrence_coeffs

__all__ = ["SlepianParams", "RadialMode", "chi0", "build_spectral_matrix",
           "solve_modes", "eval_phi", "eval_R", "eval_psi", "TruncationError"]

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_MAX_TRUNCATION = 16384


class TruncationError(RuntimeError):
    """Truncation growth exceeded the hard cap (c unreasonably large)."""


@dataclass(frozen=True)
class SlepianParams:
    """Problem triple (nu, c, N) plus solver controls.

    nu > -1 is the disk weight exponent, c >= 0 the bandwidth, N >= 0 the
    angular order.  ``truncation`` pins the expansion size (None = grow
    automatically); ``tolerance`` is the relative coefficient-tail target.
    """

    nu: float
    c: float
    N: int
    truncation: int | None = None
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.nu <= -1:
            raise ValueError("nu must exceed -1")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.truncation is not None and self.truncation < 2:
            raise ValueError("truncation must be >= 2")


@dataclass(frozen=True)
class RadialMode:
    """One radial eigen-solution.

    chi is the Sturm-Liouville eigenvalue of Lambda = -L; mu the integral
    eigenvalue of the radial kernel equation; lam = 2 (nu+1) i^N mu the 2D
    transform eigenvalue; coeffs the unit expansion vector in the
    orthonormalized T basis.
    """

    n: int
    chi: float
    mu: float
    lam: complex
    coeffs: np.ndarray = field(repr=False)
    truncation: int


def chi0(N, n, nu):
    """Zero-bandwidth eigenvalue of Lambda: (N+2n+1/2)(N+2nu+2n+3/2)."""
    return (N + 2 * n + 0.5) * (N + 2 * nu + 2 * n + 1.5)


def _log_norm_const(N, k, nu):
    """log of c-hat_k = (N! k!/(k+N)!) / sqrt(h_{N,k})."""
    log_c = math.lgamma(N + 1) + math.lgamma(k + 1) - math.lgamma(k + N + 1)
    return log_c - 0.5 * math.log(t_norm_sq(TBasisIndex(N, k, nu)))


def build_spectral_matrix(params, K):
    """Matrix of Lambda = -L_{c,N,nu} in the orthonormalized T basis.

    Diagonal d_k = chi0(N,k,nu) + c^2 b_k, off-diagonal
    e_k = c^2 a_k sqrt(h_{k+1}/h_k); symmetry is the self-adjointness
    identity a_k h_{k+1} = c_{k+1} h_k of the x^2 recurrence.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    nu, c, N = params.nu, params.c, params.N
    c2 = c * c
    diag = np.empty(K)
    off = np.empty(K - 1)
    h = np.array([t_norm_sq(TBasisIndex(N, k, nu)) for k in range(K + 1)])
    for k in range(K):
        a, b, _ = x2_recurrence_coeffs(TBasisIndex(N, k, nu))
        diag[k] = chi0(N, k, nu) + c2 * b
        if k < K - 1:
            off[k] = c2 * a * math.sqrt(h[k + 1] / h[k])
    return SymTridiagonal(diag, off)


def _tails_ok(pairs, tolerance):
    for p in pairs:
        v = np.abs(p.vector)
        if v[-1] > tolerance * np.max(v):
            return False
    return True


def _leading_coeffs(T, pairs, vecs):
    """A_0 of each eigenpair, from its peak coefficient A_m.

    Rows 0..m-1 of (T - chi) A = 0 give the ratios r_k = A_k / A_{k+1} by
    the continued fraction r_k = -e_k / (d_k - chi + e_{k-1} r_{k-1}), so
    A_0 = A_m r_0 ... r_{m-1}.  This keeps full relative accuracy where A_0
    is far below the eigenvector's roundoff level (small c, high n), which
    the LAPACK component does not.
    """
    d, e = T.diag, T.offdiag
    chi = np.array([p.value for p in pairs])
    peak = np.argmax(np.abs(vecs), axis=1)
    prod = np.ones(len(pairs))
    r = np.zeros(len(pairs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(int(peak.max(initial=0))):
            r = -e[k] / (d[k] - chi + (e[k - 1] * r if k else 0.0))
            prod = np.where(k < peak, prod * r, prod)
    return vecs[np.arange(len(pairs)), peak] * prod


def _mu_values(params, T, pairs):
    """mu of each eigenpair by the closed form of the module docstring."""
    nu, c, N = params.nu, params.c, params.N
    if c == 0:
        return np.zeros(len(pairs))
    inv_sqrt_h = np.array([t_norm_sq(TBasisIndex(N, k, nu)) for k in range(T.dim)]) ** -0.5
    log_pref = (N * math.log(c) + math.lgamma(nu + 1) - (N + 1) * math.log(2.0)
                - math.lgamma(N + nu + 2) + math.log(inv_sqrt_h[0]))
    vecs = np.array([p.vector for p in pairs])
    return math.exp(log_pref) * _leading_coeffs(T, pairs, vecs) / (vecs @ inv_sqrt_h)


def solve_modes(params, num_modes):
    """First ``num_modes`` radial modes, ordered by ascending chi.

    The truncation K starts at max(2*num_modes + 30, ceil(c) + 30) (or the
    pinned params.truncation) and doubles until every requested mode's last
    expansion coefficient is below tolerance * max|coefficient|.
    """
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    nu, c, N = params.nu, params.c, params.N
    K = params.truncation or max(2 * num_modes + 30, int(math.ceil(c)) + 30)
    K = max(K, num_modes + 2)
    if K > _MAX_TRUNCATION:
        raise TruncationError(
            f"required truncation {K} exceeds the cap {_MAX_TRUNCATION}")
    while True:
        T = build_spectral_matrix(params, K)
        pairs = symtri_eigen(T, num_modes)
        if params.truncation is not None or _tails_ok(pairs, params.tolerance):
            break
        if 2 * K > _MAX_TRUNCATION:
            raise TruncationError(
                f"needed truncation beyond {_MAX_TRUNCATION} for c={c}")
        K *= 2

    mus = _mu_values(params, T, pairs)
    lams = 2 * (nu + 1) * _I_POW[N % 4] * mus
    if not np.all(np.abs(lams) <= 1 + 1e-12):  # also refuses NaN
        raise ConvergenceError(
            f"|lambda| = {np.max(np.abs(lams)):.3g} exceeds 1 at nu={nu}, c={c}, N={N}")
    modes = []
    for n, (p, mu, lam) in enumerate(zip(pairs, mus, lams)):
        coeffs = p.vector.copy()
        coeffs.setflags(write=False)
        modes.append(RadialMode(n=n, chi=float(p.value), mu=float(mu),
                                lam=complex(lam), coeffs=coeffs, truncation=K))
    return modes


def _eval_sum(mode, params, x, radial_power):
    """sum_k A_k chat_k P_k(1-2x^2) times x**radial_power, vectorized."""
    nu, N = params.nu, params.N
    x = np.asarray(x, dtype=float)
    K = len(mode.coeffs)
    u = 1 - 2 * x * x
    scale = np.array([math.exp(_log_norm_const(N, k, nu)) for k in range(K)])
    coeff = mode.coeffs * scale
    # forward accumulation over the Jacobi recurrence
    prev = np.ones_like(u)
    acc = coeff[0] * prev
    if K > 1:
        cur = (N + 1) + (N + nu + 2) * (u - 1) / 2
        acc = acc + coeff[1] * cur
        for n in range(1, K - 1):
            c1 = 2 * (n + 1) * (n + N + nu + 1) * (2 * n + N + nu)
            c2 = (2 * n + N + nu + 1) * (N * N - nu * nu)
            c3 = (2 * n + N + nu) * (2 * n + N + nu + 1) * (2 * n + N + nu + 2)
            c4 = 2 * (n + N) * (n + nu) * (2 * n + N + nu + 2)
            prev, cur = cur, ((c2 + c3 * u) * cur - c4 * prev) / c1
            acc = acc + coeff[n + 1] * cur
    return x ** radial_power * acc


def eval_phi(mode, params, x):
    """Radial eigenfunction phi_{N,n}(x) = sqrt(x) R_{N,n}(x) on (0, 1].

    Normalized to <phi, phi>_nu = 1.  Accepts scalars or ndarrays.
    """
    out = _eval_sum(mode, params, x, params.N + 0.5)
    return out if out.ndim else float(out)


def eval_R(mode, params, r):
    """Radial factor R_{N,n}(r) = phi(r)/sqrt(r); finite at r=0 (~ r^N)."""
    out = _eval_sum(mode, params, r, float(params.N))
    return out if out.ndim else float(out)


def eval_psi(mode, params, r, theta):
    """Full 2D eigenfunction psi_{N,n}(r, theta) ~ R_{N,n}(r) e^{i N theta},
    normalized to unit norm in the disk inner product <.,.>_nu.

    The angular integral contributes 2 pi and the weight normalization
    (nu+1)/pi, so the disk-orthonormal eigenfunction is the radial factor
    divided by sqrt(2 (nu+1)).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    scale = 1.0 / math.sqrt(2.0 * (params.nu + 1.0))
    out = (scale * _eval_sum(mode, params, r, float(params.N))
           * np.exp(1j * params.N * theta))
    return out if out.ndim else complex(out)
