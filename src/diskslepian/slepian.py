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
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import ConvergenceError, SymTridiagonal, symtri_eigen
from .orthopoly import TBasisIndex, jacobi_values, t_norm_sq

__all__ = ["SlepianParams", "RadialMode", "chi0", "build_spectral_matrix",
           "solve_modes", "eval_phi", "eval_R", "eval_psi", "TruncationError"]

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# the eigensolve is dense: at K = 4096 it takes about 15 s and 0.7 GB.  K
# starts near c/4, so this admits c up to about 16000, as a cap of 16384
# did when K started at c
_MAX_TRUNCATION = 4096


class TruncationError(RuntimeError):
    """Truncation growth exceeded the hard cap (c unreasonably large)."""


@dataclass(frozen=True)
class SlepianParams:
    """Problem triple (nu, c, N) plus solver controls.

    nu > -1 is the disk weight exponent, c >= 0 the bandwidth, N >= 0 the
    angular order.  ``truncation`` pins the expansion size (None = grow
    automatically); ``tolerance`` > 0 is the relative coefficient-tail
    target.  nu, c and tolerance must be finite.
    """

    nu: float
    c: float
    N: int
    truncation: int | None = None
    tolerance: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > -1):
            raise ValueError("nu must be finite and exceed -1")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError("c must be finite and >= 0")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and > 0")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.truncation is not None and self.truncation < 2:
            raise ValueError("truncation must be >= 2")


class RadialMode(NamedTuple):
    """One radial eigen-solution, an immutable record.

    chi is the Sturm-Liouville eigenvalue of Lambda = -L; mu the integral
    eigenvalue of the radial kernel equation; lam = 2 (nu+1) i^N mu the 2D
    transform eigenvalue; coeffs the unit expansion vector in the
    orthonormalized T basis, a read-only row of the solve's eigenvectors,
    left out of the repr.
    """

    n: int
    chi: float
    mu: float
    lam: complex
    coeffs: np.ndarray
    truncation: int

    def __repr__(self):
        return (f"RadialMode(n={self.n!r}, chi={self.chi!r}, mu={self.mu!r}, "
                f"lam={self.lam!r}, truncation={self.truncation!r})")


def chi0(N, n, nu):
    """Zero-bandwidth eigenvalue of Lambda: (N+2n+1/2)(N+2nu+2n+3/2)."""
    return (N + 2 * n + 0.5) * (N + 2 * nu + 2 * n + 1.5)


def _log_norm_const(N, k, h_k):
    """log of c-hat_k = (N! k!/(k+N)!) / sqrt(h_k)."""
    log_c = math.lgamma(N + 1) + math.lgamma(k + 1) - math.lgamma(k + N + 1)
    return log_c - 0.5 * math.log(h_k)


class _BasisTerms(NamedTuple):
    """The c-independent terms of the truncation-K problem at (N, nu), each
    a read-only array over k: the basis norms h_k = t_norm_sq, the
    zero-bandwidth diagonal chi0(N, k, nu), the x^2 recurrence diagonal
    beta_k = (1 - b_jac_k)/2 and off-diagonal a_k, the norm ratios
    sqrt(h_{k+1}/h_k), h_k^(-1/2) for the mu closed form and the
    evaluation constants c-hat_k = exp(_log_norm_const)."""

    h: np.ndarray
    chi0: np.ndarray
    beta: np.ndarray
    a: np.ndarray
    ratio: np.ndarray
    inv_sqrt_h: np.ndarray
    scale: np.ndarray


@lru_cache(maxsize=64)
def _basis_terms(N, nu, K):
    """The ``_BasisTerms`` record of (N, nu, K).  The matrix build, the mu
    closed form and the eigenfunction evaluation at one truncation all read
    this one record, so a repeated solve pays only its c-dependent work.
    Terms that are not finite (h_k underflows at large N and k, nu >~ 1e154
    overflows) are kept as inf or NaN without a warning: the matrix build
    refuses them."""
    h = np.array([t_norm_sq(TBasisIndex(N, k, nu)) for k in range(K)])
    # NaN where h_k underflows to 0 (math.log refuses it); the build refuses
    # such a record before any mode is made from it
    scale = np.array([math.exp(_log_norm_const(N, k, h_k)) if h_k > 0 else math.nan
                      for k, h_k in enumerate(h.tolist())])
    k = np.arange(K)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = 2 * k + N + nu
        a = -(k[:-1] + N + 1) * (k[:-1] + N + nu + 1) / ((s[:-1] + 1) * (s[:-1] + 2))
        b_jac = np.empty(K)
        b_jac[0] = (nu - N) / (N + nu + 2)
        b_jac[1:] = (nu * nu - N * N) / (s[1:] * (s[1:] + 2))
        terms = _BasisTerms(h, chi0(N, k, nu), 0.5 * (1.0 - b_jac), a,
                            np.sqrt(h[1:] / h[:-1]), h ** -0.5, scale)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def build_spectral_matrix(params, K):
    """Matrix of Lambda = -L_{c,N,nu} in the orthonormalized T basis.

    Diagonal d_k = chi0(N,k,nu) + c^2 b_k, off-diagonal
    e_k = c^2 a_k sqrt(h_{k+1}/h_k); symmetry is the self-adjointness
    identity a_k h_{k+1} = c_{k+1} h_k of the x^2 recurrence.  a_k and b_k
    are the expressions of ``x2_recurrence_coeffs`` evaluated over
    k = 0..K-1 at once, with its k = 0 branch for b_0.  Everything but the
    two products with c^2 comes from the cached ``_basis_terms`` record of
    (N, nu, K), so a repeated (N, nu, K) costs two array operations; the
    returned arrays are new.  Raises ConvergenceError when an entry is not
    finite.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    nu, c, N = params.nu, params.c, params.N
    c2 = c * c
    t = _basis_terms(N, nu, K)
    # a non-finite entry is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        diag = t.chi0 + c2 * t.beta
        off = c2 * t.a * t.ratio
    try:
        return SymTridiagonal(diag, off)
    except ValueError as exc:  # entries not finite, e.g. nu >~ 1e154
        raise ConvergenceError(
            f"spectral matrix entries overflow at nu={nu}, c={c}, N={N}") from exc


def _tails_ok(vecs, tolerance):
    """No row of vecs has a last entry above tolerance times its largest."""
    v = np.abs(vecs)
    return not np.any(v[:, -1] > tolerance * np.max(v, axis=1))


def _leading_coeffs(T, chi, vecs):
    """A_0 of each eigenpair (values chi, vectors the rows of vecs), from
    its peak coefficient A_m.

    Rows 0..m-1 of (T - chi) A = 0 give the ratios r_k = A_k / A_{k+1} by
    the continued fraction r_k = -e_k / (d_k - chi + e_{k-1} r_{k-1}), so
    A_0 = A_m r_0 ... r_{m-1}.  This keeps full relative accuracy where A_0
    is far below the eigenvector's roundoff level (small c, high n), which
    the LAPACK component does not.  The fraction runs in Python floats, one
    mode at a time: m is a few dozen, where a numpy call per step costs
    more than the arithmetic.
    """
    peak = np.argmax(np.abs(vecs), axis=1)
    d, e = T.diag.tolist(), T.offdiag.tolist()
    prods = []
    for x, m in zip(chi.tolist(), peak.tolist()):
        prod, r = 1.0, 0.0
        try:
            for k in range(m):
                r = -e[k] / (d[k] - x + (e[k - 1] * r if k else 0.0))
                prod *= r
        except ZeroDivisionError:  # an exact zero pivot: mu is refused as NaN
            prod = math.nan
        prods.append(prod)
    return vecs[np.arange(len(prods)), peak] * np.array(prods)


def _mu_values(params, T, eig):
    """mu of each eigenpair of ``eig`` (an ``Eigenpairs``) by the closed
    form of the module docstring."""
    nu, c, N = params.nu, params.c, params.N
    if c == 0:
        # T is diagonal, A = e_n: mu = 1/(2 (nu+1)) for N = n = 0, else 0
        mus = np.zeros(len(eig))
        if N == 0:
            mus[0] = 0.5 / (nu + 1)
        return mus
    inv_sqrt_h = _basis_terms(N, nu, T.dim).inv_sqrt_h
    log_pref = (N * math.log(c) + math.lgamma(nu + 1) - (N + 1) * math.log(2.0)
                - math.lgamma(N + nu + 2) + math.log(inv_sqrt_h[0]))
    vecs = eig.vectors
    return (math.exp(log_pref) * _leading_coeffs(T, eig.values, vecs)
            / (vecs @ inv_sqrt_h))


def solve_modes(params, num_modes):
    """First ``num_modes`` radial modes, ordered by ascending chi.

    Mode n is the n-th eigenvalue chi of Lambda, not the n-th largest |mu|.
    The two orders agree for nu >= 0; for nu in (-1, 0) |mu| can grow with
    n over the first modes, so at larger c the first modes by chi are not
    the most concentrated ones (at nu = -0.5, c = 40, N = 0 |mu| rises
    from mode 0 to mode 12, and the top 12 |mu| exceed the first 12 by chi
    by up to 25%).

    The truncation K starts at num_modes + ceil(c/4) + 30 and doubles until
    every requested mode's last expansion coefficient is below
    tolerance * max|coefficient|.  The start covers the coefficient support
    of the modes asked for with a margin, and the dense eigensolve costs
    O(K^3), so it is no larger.  Measured over the 480 distinct ops of the
    spectrum_sweep benchmark, seeds 201-210 (c in [0.5, 79], nu in [0, 3],
    N <= 4, 10 to 30 modes), the smallest K that passes the tail check is
    num_modes + 4 (c = 1.1) to num_modes + 23 for c <= 56 and
    num_modes + 31 at c = 77; the start exceeds it by 19 or more and never
    doubles there.  At c = 1000 the last |A_k| > 1e-12 max|A| sits near
    170 for 10 modes and near 300 for 60.  A pinned params.truncation
    (lifted to num_modes + 2) is not grown: if it fails that tail check,
    ConvergenceError is raised.
    """
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    nu, c, N = params.nu, params.c, params.N
    K = params.truncation or num_modes + math.ceil(c / 4) + 30
    K = max(K, num_modes + 2)
    if K > _MAX_TRUNCATION:
        raise TruncationError(
            f"required truncation {K} exceeds the cap {_MAX_TRUNCATION}")
    while True:
        T = build_spectral_matrix(params, K)
        eig = symtri_eigen(T, num_modes)
        if _tails_ok(eig.vectors, params.tolerance):
            break
        if params.truncation is not None:
            raise ConvergenceError(
                f"pinned truncation {K} leaves a coefficient tail above "
                f"tolerance {params.tolerance:g} at nu={nu}, c={c}, N={N}")
        if 2 * K > _MAX_TRUNCATION:
            raise TruncationError(
                f"needed truncation beyond {_MAX_TRUNCATION} for c={c}")
        K *= 2

    mus = _mu_values(params, T, eig)
    lams = 2 * (nu + 1) * _I_POW[N % 4] * mus
    if not np.all(np.abs(lams) <= 1 + 1e-12):  # also refuses NaN
        raise ConvergenceError(
            f"|lambda| = {np.max(np.abs(lams)):.3g} exceeds 1 at nu={nu}, c={c}, N={N}")
    return [RadialMode(n, chi, mu, lam, coeffs, K)
            for n, (chi, mu, lam, coeffs)
            in enumerate(zip(eig.values.tolist(), mus.tolist(), lams.tolist(),
                             eig.vectors))]


def _eval_sum(mode, params, x, radial_power):
    """sum_k A_k chat_k P_k(1-2x^2) times x**radial_power, vectorized."""
    nu, N = params.nu, params.N
    x = np.asarray(x, dtype=float)
    scale = _basis_terms(N, nu, len(mode.coeffs)).scale
    # forward accumulation, one Jacobi term at a time
    terms = zip(mode.coeffs * scale, jacobi_values(N, nu, 1 - 2 * x * x))
    coeff, p = next(terms)
    acc = coeff * p
    for coeff, p in terms:
        acc = acc + coeff * p
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
