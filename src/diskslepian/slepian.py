"""Spectral solver for the generalized 2D Slepian radial eigenproblem.

The radial eigenfunctions phi_{N,n} of the finite Hankel transform
H_{c,N,nu} are computed Bouwkamp-style: expand in the zero-bandwidth
eigenbasis

    T_{N,k}(x) = x^(N+1/2) * N! k!/(k+N)! * P_k^{(N,nu)}(1 - 2 x^2),

in which the commuting differential operator Lambda = -L_{c,N,nu} acts as
Lambda = diag(chi0(N, k, nu)) + c^2 (I - J)/2: under u = 1 - 2 x^2 the
T_k / sqrt(h_k) are x^(N+1/2) times the orthonormal Jacobi polynomials of
(1-u)^N (1+u)^nu, J is their Jacobi matrix (``orthopoly.jacobi_recurrence``,
as for the Gauss rules) and x^2 = (1-u)/2.  J has its spectrum in (-1, 1),
so every truncation has chi0(N, n, nu) <= chi_n <= chi0(N, n, nu) + c^2.
Eigenvalues chi are the Sturm-Liouville spectrum; eigenvectors are the
expansion coefficients A_k in the orthonormalized basis.

The eigenfunctions are summed on the x^2 matrix (I - J)/2 that the solver
diagonalises: with s = x^2, T_k / sqrt(h_k) = x^(N+1/2) r_k(s), where r_0 =
h_0^(-1/2) and row k of x^2 r = (I - J)/2 r gives r_{k+1} = ((s - x2_{k,k})
r_k - x2_{k-1,k} r_{k-1}) / x2_{k,k+1} (Gautschi, SIAM Rev. 9, 1967).

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
truncation reaches.  The 2D eigenvalue is lambda = 2 (nu+1) i^N mu.  A
solve is refused (ConvergenceError) where |lambda| exceeds, by 1e-12
relative, 1 (the transform contracts under a probability weight) or, for
nu >= 0, 2 (nu+1)/c (Plancherel, as the weight is <= (nu+1)/pi).  That
refuses the worst wrong mu at high N, not all: (nu, c, N) = (0, 1000, 120)
and (0, 40, 60) pass it with wrong mu.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .linalg import ConvergenceError, SymTridiagonal, symtri_eigen
from .orthopoly import jacobi_recurrence

__all__ = ["SlepianParams", "RadialMode", "chi0", "build_spectral_matrix",
           "solve_modes", "eval_phi", "eval_R", "eval_psi", "TruncationError"]

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# the eigensolve is dense: at K = 4096 it takes about 15 s and 0.7 GB.  The
# ceiling of the truncation start, num_modes + ceil(c/4) + 30, must stay
# under it, which admits c up to about 16000
_MAX_TRUNCATION = 4096

# the mu closed form weights A_k by h_k^(-1/2), which grows like
# binom(k+N, N).  Past a growth of 1e7 over the rows kept (N >~ 5), mu
# depends on eigenvector entries below roundoff and so moves with K, and
# ``_certified_truncation`` keeps the old start
_MAX_WEIGHT_GROWTH = 1e7


class TruncationError(ConvergenceError):
    """Truncation growth exceeded the hard cap (c unreasonably large)."""


def _as_int(value, name):
    """value as a Python int; any integer type is accepted (numpy ones
    too), anything else, 2.0 included, is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        object.__setattr__(self, "N", _as_int(self.N, "N"))
        if self.truncation is not None:
            object.__setattr__(self, "truncation",
                               _as_int(self.truncation, "truncation"))
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
    two_n = 2 * n  # once, for an array n of the basis-term build
    return (N + two_n + 0.5) * (N + 2 * nu + two_n + 1.5)


class _BasisTerms(NamedTuple):
    """The c-independent terms of the truncation-K problem at (N, nu), each
    a read-only array over k: the zero-bandwidth diagonal chi0(N, k, nu),
    the diagonal (1 - alpha_k)/2 and off-diagonal -sqrt(beta_{k+1})/2 of
    the x^2 matrix (I - J)/2, which also drive the eigenfunction
    recurrence, and h_k^(-1/2) for the mu closed form and r_0, where
    h_k = integral_0^1 T_{N,k}^2 (1-x^2)^nu dx.

    The last three are the row terms of ``_certified_truncation``'s tail
    bound, with x2 = (I - J)/2 and w_k = h_k^(-1/2): gap_k = x2_kk -
    |x2_{k,k+1}|; disc_lo_k = gap_k - |x2_{k-1,k}|, the Gershgorin lower
    end of row k; and step_k = |x2_{k-1,k}| w_k / w_{k-1} (0 at k = 0).
    Row K-1 reads |x2_{K-1,K}| = sqrt(beta_K)/2 from one row past the
    matrix, so that every row keeps the prefix property."""

    chi0: np.ndarray
    x2_diag: np.ndarray
    x2_off: np.ndarray
    inv_sqrt_h: np.ndarray
    disc_lo: np.ndarray
    gap: np.ndarray
    step: np.ndarray


@lru_cache(maxsize=128)
def _basis_terms(N, nu, K):
    """The ``_BasisTerms`` of (N, nu) at truncation K.  The truncation bound,
    the matrix build, the mu closed form and the eigenfunction evaluation
    all read them, so a repeated solve pays only its c-dependent work.  A
    solve reads two keys, the bound's ceiling and its K; the 48 solves of a
    spectrum_sweep pass read about 90, so all of them stay cached.  Every
    entry depends on its own k alone: a shorter K is a prefix, bitwise.

    h_k = (N!)^2 k! Gamma(k+nu+1) / (2 (2k+N+nu+1) (k+N)! Gamma(k+N+nu+1))
    follows from the Jacobi orthogonality under u = 1 - 2 x^2.  Terms that
    are not finite are kept without a warning: the recurrence is NaN for
    nu >~ 1e154, which the matrix build refuses, and h_k underflows to 0 at
    large N and k, which leaves inf weights and NaN step_k; the mu step
    refuses those (weights r_k(0) from the recurrence would stay finite and
    give mu_0 = -1.9e-28 at nu = 0, c = 1000, N = 400)."""
    # lgamma(j + 1) and lgamma(j + nu + 1) for j < K + N, read at j = k
    # and j = k + N
    lg = [math.lgamma(j + 1) for j in range(K + N)]
    lg_nu = [math.lgamma(j + nu + 1) for j in range(K + N)]
    lg_N, log2 = lg[N], math.log(2)
    h = [math.exp(2 * lg_N + lg[k] + lg_nu[k] - log2 - math.log(2 * k + N + nu + 1)
                  - lg[k + N] - lg_nu[k + N]) for k in range(K)]
    alpha, beta = jacobi_recurrence(K + 1, N, nu)
    x2_diag = 0.5 * (1.0 - alpha[:K])
    # |x2_{k-1,k}| at k for k <= K, 0 at k = 0 (no row above row 0)
    off = 0.5 * np.sqrt(beta)
    off[0] = 0.0
    # h_0 leads h once more, so that step_0 = 0 w_0 / w_0 = 0; step is
    # inf / inf = NaN where h_k underflowed: such a row certifies nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / np.sqrt([h[0], *h])
        step = off[:-1] * w[1:] / w[:-1]
    gap = x2_diag - off[1:]
    terms = _BasisTerms(chi0(N, np.arange(K, dtype=float), nu), x2_diag, -off[1:-1], w[1:],
                        gap - off[:-1], gap, step)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def build_spectral_matrix(params, K):
    """Matrix of Lambda = -L_{c,N,nu} = diag(chi0) + c^2 (I - J)/2 in the
    orthonormalized T basis: d_k = chi0(N,k,nu) + c^2 (1 - alpha_k)/2 and
    e_k = -c^2 sqrt(beta_{k+1})/2, (alpha, beta) the Jacobi recurrence of
    (1-u)^N (1+u)^nu.  Its n-th eigenvalue lies in [chi0_n, chi0_n + c^2].
    All but the two products with c^2 is the cached ``_basis_terms`` of
    (N, nu, K); the returned arrays are new.  Raises ConvergenceError when
    an entry is not finite.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    nu, c, N = params.nu, params.c, params.N
    c2 = c * c
    t = _basis_terms(N, nu, K)
    # a non-finite entry is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        diag = t.chi0 + c2 * t.x2_diag
        off = c2 * t.x2_off
    try:
        return SymTridiagonal(diag, off)
    except ValueError as exc:  # entries not finite, e.g. nu >~ 1e154
        raise ConvergenceError(
            f"spectral matrix entries overflow at nu={nu}, c={c}, N={N}") from exc


def _tails_ok(eig, tolerance):
    """No row of eig.vectors has a last entry above tolerance times its
    largest, eig.top."""
    return not np.any(np.abs(eig.vectors[:, -1]) > tolerance * eig.top)


def _leading_coeffs(T, eig):
    """A_0 of each eigenpair of ``eig`` (an ``Eigenpairs`` of T), from its
    peak coefficient A_m = eig.top, m = eig.peak.

    Rows 0..m-1 of (T - chi) A = 0 give the ratios r_k = A_k / A_{k+1} by
    the continued fraction r_0 = -e_0 / (d_0 - chi), r_k = -e_k / (d_k - chi
    + e_{k-1} r_{k-1}), so A_0 = A_m r_0 ... r_{m-1}, at the scale of the
    vector (A_0 = A_m where m = 0).  This keeps full relative accuracy where
    A_0 is far below the eigenvector's roundoff level (small c, high n),
    which the LAPACK component does not.  The fraction runs in Python
    floats, one mode at a time: m is a few dozen, where a numpy call per
    step costs more than the arithmetic.
    """
    d, e = T.diag.tolist(), T.offdiag.tolist()
    d0, e0 = d[0], e[0]
    prods = []
    for x, m in zip(eig.values.tolist(), eig.peak.tolist()):
        if not m:
            prods.append(1.0)
            continue
        try:
            prod = r = -e0 / (d0 - x)
            for k in range(1, m):
                r = -e[k] / (d[k] - x + e[k - 1] * r)
                prod *= r
        except ZeroDivisionError:  # an exact zero pivot: mu is refused as NaN
            prod = math.nan
        prods.append(prod)
    return eig.top * np.array(prods)


def _mu_values(params, T, eig):
    """mu of each eigenpair of ``eig`` (an ``Eigenpairs``) by the closed
    form of the module docstring.  A_0 and sum_k A_k h_k^(-1/2) both scale
    with the vector, so mu does not depend on its norm.  Raises
    ConvergenceError where a weight is not finite (h_k underflowed)."""
    nu, c, N = params.nu, params.c, params.N
    if c == 0:
        # T is diagonal, A = e_n: mu = 1/(2 (nu+1)) for N = n = 0, else 0
        mus = np.zeros(len(eig))
        if N == 0:
            mus[0] = 0.5 / (nu + 1)
        return mus
    inv_sqrt_h = _basis_terms(N, nu, T.dim).inv_sqrt_h
    if not np.isfinite(inv_sqrt_h).all():
        raise ConvergenceError(
            f"mu weights h_k^(-1/2) overflow at nu={nu}, c={c}, N={N}, K={T.dim}")
    log_pref = (N * math.log(c) + math.lgamma(nu + 1) - (N + 1) * math.log(2.0)
                - math.lgamma(N + nu + 2) + math.log(inv_sqrt_h[0]))
    return (math.exp(log_pref) * _leading_coeffs(T, eig)
            / (eig.vectors @ inv_sqrt_h))


def _certified_truncation(params, num_modes, ceiling):
    """Smallest K in [num_modes + 2, ceiling] at which a tail bound certifies
    that the first num_modes eigenvectors have decayed below
    params.tolerance, or ceiling where none is certified.

    Lambda = diag(chi0) + c^2 x2 with x2 = (I - J)/2.  Every truncation of
    x2 is a compression of multiplication by x^2 on (0, 1), so its spectrum
    lies in (0, 1), and by Weyl's inequality chi_n <= chi0_n + c^2 in every
    truncation.  The bound therefore takes the bracket
    chi_ub = chi0(N, num_modes - 1, nu) + c^2 for chi_{num_modes-1}.  Row
    k's Gershgorin disc reaches down to chi0_k + c^2 disc_lo_k.  Past the
    last row whose disc reaches below chi_ub, an eigenvector with chi <=
    chi_ub does not grow, and row k of the eigenrelation gives |A_k| <=
    |e_{k-1}| |A_{k-1}| / (d_k - chi_ub - |e_k|).  The mu closed form sums
    A_k w_k, w_k = h_k^(-1/2), so that weighted coefficient moves by at
    most c^2 step_k / (chi0_k + c^2 gap_k - chi_ub) a row.  K is where the
    product of these factors first falls under the tolerance.  h_k
    decreases, so the weighted factor is the larger and K also certifies
    the unweighted tail that ``_tails_ok`` checks.  A row that is not
    finite certifies nothing.

    The row terms disc_lo, gap and step do not depend on c and are cached
    in ``_BasisTerms`` (see there); a call forms only their products with
    c^2 in one disc test over the ceiling's rows and in the walk.  The
    last row's disc reads beta_K of the row past the matrix, which only
    widens it, so the bound stays valid and each row is the same at every
    ceiling.

    The bound covers truncation, not roundoff.  LAPACK resolves an
    eigenvector entry only down to about 1e-16 of the largest (smaller ones
    come back inexact or as 0), and the weights h_k^(-1/2) lift those
    entries into the sum.  So for c > 0 a K whose weights grow by more than
    _MAX_WEIGHT_GROWTH over its rows is not used, and the ceiling, the old
    start, is returned.
    """
    c2 = params.c * params.c
    t = _basis_terms(params.N, params.nu, ceiling)
    chi_ub = chi0(params.N, num_modes - 1, params.nu) + c2
    # one past the last disc that reaches below chi_ub (or is NaN)
    k0 = ceiling - int(np.argmin((t.chi0 + c2 * t.disc_lo > chi_ub)[::-1]))
    prod = 1.0
    for k, (chi0_k, gap_k, step_k) in enumerate(
            zip(t.chi0[k0:].tolist(), t.gap[k0:].tolist(), t.step[k0:].tolist()), k0):
        prod *= c2 * step_k / (chi0_k + c2 * gap_k - chi_ub)
        if prod < params.tolerance:
            K = max(k + 1, num_modes + 2)
            # inf weights (h_k underflowed) count as steep
            if c2 == 0 or t.inv_sqrt_h[K - 1] <= _MAX_WEIGHT_GROWTH * t.inv_sqrt_h[0]:
                return K
            break
    return ceiling


def solve_modes(params, num_modes):
    """First ``num_modes`` radial modes, ordered by ascending chi.

    Mode n is the n-th eigenvalue chi of Lambda, not the n-th largest |mu|.
    The two orders agree for nu >= 0; for nu in (-1, 0) |mu| can grow with
    n over the first modes, so at larger c the first modes by chi are not
    the most concentrated ones (at nu = -0.5, c = 40, N = 0 |mu| rises
    from mode 0 to mode 12, and the top 12 |mu| exceed the first 12 by chi
    by up to 25%).

    The truncation K starts at the smallest K >= num_modes + 2 that a
    bracket-and-recurrence tail bound certifies (``_certified_truncation``),
    at most the ceiling num_modes + ceil(c/4) + 30, and doubles until every
    requested mode's last expansion coefficient is below
    tolerance * max|coefficient|.  The dense eigensolve costs O(K^3), so the
    start is no larger than the bound needs.  At c = 0 it is num_modes + 2.
    Measured over the 480 distinct ops of the spectrum_sweep benchmark,
    seeds 201-210 (c in [0.5, 79], nu in [0, 3], N <= 4, 10 to 30 modes),
    K is num_modes + 4 to num_modes + 41, 9 to 27 rows (median 25) below
    the ceiling, and 0 (median) to 10 rows above the smallest K that passes
    the tail check; no solve doubles there.  Where chi_ub is far above the
    true chi (c = 80 with 10 modes, and c = 200 or 1000), no K below the
    ceiling is certified and K is the ceiling; at c = 1000 the last
    |A_k| > 1e-12 max|A| sits near 170 for 10 modes and near 300 for 60.
    K is the ceiling too where the weights h_k^(-1/2) of the mu closed form
    grow by more than 1e7 over the certified rows (N >~ 5 at c > 0), since
    mu moves with K by roundoff there.
    A pinned params.truncation (lifted to num_modes + 2) is not grown: if
    it fails that tail check, ConvergenceError is raised.
    """
    num_modes = _as_int(num_modes, "num_modes")
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    nu, c, N = params.nu, params.c, params.N
    K = params.truncation or num_modes + math.ceil(c / 4) + 30
    K = max(K, num_modes + 2)
    if K > _MAX_TRUNCATION:
        raise TruncationError(
            f"required truncation {K} exceeds the cap {_MAX_TRUNCATION}")
    if params.truncation is None:
        K = _certified_truncation(params, num_modes, K)
    while True:
        T = build_spectral_matrix(params, K)
        eig = symtri_eigen(T, num_modes)
        if _tails_ok(eig, params.tolerance):
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
    lam_max = np.abs(mus).max() * (2 * (nu + 1))  # |lambda| = 2 (nu+1) |mu|
    # the contraction bounds of the module docstring
    bound = min(1.0, 2 * (nu + 1) / c) if nu >= 0 and c > 0 else 1.0
    if not lam_max <= bound * (1 + 1e-12):  # also refuses NaN
        raise ConvergenceError(
            f"|lambda| = {lam_max:.6g} exceeds its bound {bound:.6g} by "
            f"{lam_max / bound - 1:.2g} relative at nu={nu}, c={c}, N={N}")
    lams = 2 * (nu + 1) * _I_POW[N % 4] * mus
    # tuple.__new__ fills each record without a Python-level __new__ call
    return list(map(tuple.__new__, repeat(RadialMode),
                    zip(range(num_modes), eig.values.tolist(), mus.tolist(),
                        lams.tolist(), eig.vectors, repeat(K))))


def _eval_sum(mode, params, x, radial_power):
    """x**radial_power * sum_k A_k r_k(x^2), vectorized: r_k by the x^2
    recurrence of the module docstring, one term at a time."""
    x = np.asarray(x, dtype=float)
    t = _basis_terms(params.N, params.nu, len(mode.coeffs))
    s = x * x
    coeffs, diag = mode.coeffs.tolist(), t.x2_diag.tolist()
    off = [0.0, *t.x2_off.tolist()]  # off[k] = x2_{k-1,k}, 0 above row 0
    r_prev, r = 0.0, np.full_like(s, t.inv_sqrt_h[0])
    acc = coeffs[0] * r
    for k in range(1, len(coeffs)):
        r_prev, r = r, ((s - diag[k - 1]) * r - off[k - 1] * r_prev) / off[k]
        acc += coeffs[k] * r
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
