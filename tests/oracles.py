"""Independent test oracles, kept away from the library code paths.

Everything here recomputes expected values from first principles: extended
precision series (mpmath), finite hypergeometric sums, adaptive Simpson
quadrature, Sturm-sequence bisection for tridiagonal spectra, and an
extended-precision eigensolve of the radial spectral matrix, for mu and for
the eigenfunctions.  It also holds
reference implementations that the library does not use: the radial basis
function T_{N,n} (``t_basis``), its norms (``t_norm_sq``) and x^2
recurrence (``x2_recurrence_coeffs``) one index at a time, the scalar
recipe that the library's spectral matrix is checked against, the earlier
Gershgorin tail bound of the truncation (``gershgorin_truncation``), the
library's solve at a given truncation (``solve_at_truncation``), and the
classical prolate operator (``apply_L_classical``), a separate code path
for the weight-zero reduction of ``operators.apply_L``.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from diskslepian import slepian as sl
from diskslepian.orthopoly import jacobi_term

mp.mp.dps = 40


def bessel_j_mp(order, x):
    """Extended-precision Bessel J (mpmath power series / asymptotics)."""
    return mp.besselj(order, x)


def jacobi_2f1_mp(n, a, b, x):
    """Jacobi polynomial via the truncated hypergeometric sum
    binom(a+n, n) 2F1(-n, n+a+b+1; a+1; (1-x)/2), extended precision."""
    s = mp.mpf(0)
    for k in range(n + 1):
        s += (mp.rf(-n, k) * mp.rf(n + a + b + 1, k)
              / (mp.rf(a + 1, k) * mp.factorial(k)) * ((1 - mp.mpf(x)) / 2) ** k)
    return mp.binomial(a + n, n) * s


def gegenbauer_mp(n, lam, x):
    """Gegenbauer C_n^lam via its Jacobi connection, extended precision."""
    pref = mp.rf(2 * lam, n) / mp.rf(lam + mp.mpf(1) / 2, n)
    return pref * jacobi_2f1_mp(n, lam - mp.mpf(1) / 2, lam - mp.mpf(1) / 2, x)


def hankel_jacobi_lhs_mp(alpha, beta, n, x, dps=30):
    """Extended-precision quadrature of the finite Hankel transform of the
    Jacobi radial basis element, via t = sin(theta) (entire integrand for
    the half-integer parameter grid)."""
    with mp.workdps(dps):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)

        def integrand(th):
            t = mp.sin(th)
            return (mp.sqrt(xx * t) * mp.besselj(a, xx * t)
                    * jacobi_2f1_mp(n, a, b, 1 - 2 * t * t)
                    * t ** (a + mp.mpf(1) / 2) * mp.cos(th) ** (2 * b + 1))

        return mp.quad(integrand, [0, mp.pi / 2])


def lemma1_rhs_mp(alpha, beta, n, x, dps=50):
    """The closed form of Lemma 1, 2^beta Gamma(beta+n+1)/n!
    sqrt(x) J_{alpha+beta+2n+1}(x) / x^(beta+1), at ``dps`` digits."""
    with mp.workdps(dps):
        b, xx = mp.mpf(beta), mp.mpf(x)
        return (2 ** b * mp.gamma(b + n + 1) / mp.factorial(n) * mp.sqrt(xx)
                * mp.besselj(mp.mpf(alpha) + b + 2 * n + 1, xx) / xx ** (b + 1))


def hankel_jacobi_lhs_series_mp(alpha, beta, n, x, dps=60):
    """The finite Hankel transform of ``hankel_jacobi_lhs_mp`` as finite
    sums: the script-J power series sqrt(x t) sum_k (-1)^k (x t/2)^(alpha+2k)
    / (k! Gamma(alpha+k+1)) times the Jacobi 2F1 sum in t^2, each monomial
    t^(2m+1) (1-t^2)^beta integrated exactly as B(m+1, beta+1)/2 under
    u = t^2.  Orthogonality zeroes the terms k < n; the k sum runs past n
    and its peak near x/2 until a term drops below 10^-dps (absolute)."""
    with mp.workdps(dps):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        d = [mp.binomial(a + n, n) * mp.rf(-n, j) * mp.rf(n + a + b + 1, j)
             / (mp.rf(a + 1, j) * mp.factorial(j)) for j in range(n + 1)]
        total = mp.mpf(0)
        k = 0
        while True:
            ck = (-1) ** k * (xx / 2) ** (a + 2 * k) / (mp.factorial(k) * mp.gamma(a + k + 1))
            term = ck * sum(dj * mp.beta(a + k + j + 1, b + 1) for j, dj in enumerate(d)) / 2
            total += term
            if k > max(n, xx) and abs(term) < mp.mpf(10) ** -dps:
                break
            k += 1
        return mp.sqrt(xx) * total


def adaptive_simpson(f, a, b, tol=1e-13, max_depth=48):
    """Plain adaptive Simpson quadrature."""

    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), tol, 0)


def sturm_count_below(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal below x
    (Sturm sequence sign count, extended precision)."""
    count = 0
    d = mp.mpf(diag[0]) - x
    if d < 0:
        count += 1
    for i in range(1, len(diag)):
        denom = d if d != 0 else mp.mpf(1e-40)
        d = (mp.mpf(diag[i]) - x) - mp.mpf(off[i - 1]) ** 2 / denom
        if d < 0:
            count += 1
    return count


def tridiag_matvec(T, v):
    """T v for a symmetric tridiagonal T with fields diag and offdiag."""
    out = T.diag * v
    out[:-1] += T.offdiag * v[1:]
    out[1:] += T.offdiag * v[:-1]
    return out


def tridiag_eigs_bisect(diag, off, count, tol=mp.mpf("1e-25")):
    """First ``count`` eigenvalues (ascending) by Sturm bisection."""
    radius = max(abs(mp.mpf(d)) for d in diag) + 2 * max(
        (abs(mp.mpf(e)) for e in off), default=mp.mpf(0)) + 1
    out = []
    for j in range(count):
        lo, hi = -radius, radius
        while hi - lo > tol * max(1, abs(hi) + abs(lo)):
            mid = (lo + hi) / 2
            if sturm_count_below(diag, off, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
        out.append((lo + hi) / 2)
    return out


def jacobi_recurrence_mp(n, a, b):
    """Monic recurrence coefficients (alpha, beta) of (1-u)^a (1+u)^b on
    (-1,1) as mpf lists, beta[0] the mass 2^(a+b+1) B(a+1, b+1), at the
    working precision; k = 0 and k = 1 take the limits of the general forms.
    """
    a, b = mp.mpf(a), mp.mpf(b)
    alpha, beta = [], []
    for k in range(n):
        den = 2 * k + a + b
        alpha.append((b - a) / (a + b + 2) if k == 0 else (b * b - a * a) / (den * (den + 2)))
        if k == 0:
            beta.append(2 ** (a + b + 1) * mp.beta(a + 1, b + 1))
        elif k == 1:
            beta.append(4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3)))
        else:
            beta.append(4 * k * (k + a) * (k + b) * (k + a + b)
                        / (den * den * (den + 1) * (den - 1)))
    return alpha, beta


def _spectral_tridiag_mp(nu, c, N, K):
    """Diagonal, off-diagonal and the norms h_0..h_{K-1} of the K x K
    spectral matrix of Lambda = -L_{c,N,nu} in the orthonormalized T basis,
    as mpf lists at the working precision.

    The norms h_k and the x^2 recurrence of T_{N,k}(x) = x^(N+1/2) N! k!/(k+N)!
    P_k^{(N,nu)}(1-2x^2) are written out here from the Jacobi polynomial
    identities.
    """
    nu, c = mp.mpf(nu), mp.mpf(c)
    h = [mp.exp(2 * mp.loggamma(N + 1) + mp.loggamma(k + 1)
                + mp.loggamma(k + nu + 1) - mp.log(2 * (2 * k + N + nu + 1))
                - mp.loggamma(k + N + 1) - mp.loggamma(k + N + nu + 1)) for k in range(K)]
    diag, off = [], []
    for k in range(K):
        s = 2 * k + N + nu
        a = -(k + N + 1) * (k + N + nu + 1) / ((s + 1) * (s + 2))
        b = (nu - N) / (N + nu + 2) if k == 0 else (nu * nu - N * N) / (s * (s + 2))
        diag.append((N + 2 * k + mp.mpf(1) / 2) * (N + 2 * nu + 2 * k + mp.mpf(3) / 2)
                    + c * c * (1 - b) / 2)
        if k < K - 1:
            off.append(c * c * a * mp.sqrt(h[k + 1] / h[k]))
    return diag, off, h


def slepian_mu_mp(nu, c, N, K, count, dps=80):
    """mu_{N,n}, n < count, from an extended-precision eigensolve of the
    K x K spectral matrix of Lambda = -L_{c,N,nu} in the orthonormalized
    T basis (``_spectral_tridiag_mp``), through Slepian's coefficient-ratio
    formula.  ``dps`` must leave digits to spare below the smallest
    coefficient A_0 (about mu itself).
    """
    with mp.workdps(dps):
        diag, off, h = _spectral_tridiag_mp(nu, c, N, K)
        nu, c = mp.mpf(nu), mp.mpf(c)
        T = mp.zeros(K, K)
        for k in range(K):
            T[k, k] = diag[k]
            if k < K - 1:
                T[k, k + 1] = T[k + 1, k] = off[k]
        E, Q = mp.eigsy(T)
        order = sorted(range(K), key=lambda i: E[i])
        pref = c ** N * mp.gamma(nu + 1) / (2 ** (N + 1) * mp.gamma(N + nu + 2) * mp.sqrt(h[0]))
        out = []
        for j in order[:count]:
            tip = sum(Q[k, j] / mp.sqrt(h[k]) for k in range(K))
            out.append(float(pref * Q[0, j] / tip))
        return out


def slepian_phi_mp(nu, c, N, K, count, xs, dps=40):
    """phi_{N,n}(x) at the points xs for n < count, an array (count,
    len(xs)), from the K x K spectral matrix in extended precision.

    Each eigenvector comes from inverse iteration on the tridiagonal,
    shifted by the double eigenvalue of the rounded matrix: a shift within
    ~1e-13 relative of chi_n gains ~10 digits a step, so four steps reach
    the working precision.  Its sign makes the largest |A_k| positive, as
    in the library.  The basis T_{N,k} / sqrt(h_k) is summed from the
    hypergeometric Jacobi values of ``mpmath.jacobi``, not from a
    recurrence.
    """
    with mp.workdps(dps):
        diag, off, h = _spectral_tridiag_mp(nu, c, N, K)
        shifts = np.linalg.eigvalsh(np.diag([float(d) for d in diag])
                                    + np.diag([float(e) for e in off], 1)
                                    + np.diag([float(e) for e in off], -1))[:count]
        basis = []
        for k in range(K):
            norm = mp.exp(mp.loggamma(N + 1) + mp.loggamma(k + 1) - mp.loggamma(k + N + 1)) \
                / mp.sqrt(h[k])
            basis.append([norm * mp.mpf(x) ** (N + mp.mpf(1) / 2)
                          * mp.jacobi(k, N, mp.mpf(nu), 1 - 2 * mp.mpf(x) ** 2) for x in xs])
        out = []
        for shift in shifts:
            v = [mp.mpf(1)] * K
            for _ in range(4):
                # Thomas sweep of (T - shift) y = v
                piv, rhs = [diag[0] - shift], [v[0]]
                for k in range(1, K):
                    m = off[k - 1] / piv[-1]
                    piv.append(diag[k] - shift - m * off[k - 1])
                    rhs.append(v[k] - m * rhs[-1])
                y = [rhs[-1] / piv[-1]]
                for k in range(K - 2, -1, -1):
                    y.append((rhs[k] - off[k] * y[-1]) / piv[k])
                y.reverse()
                nrm = mp.sqrt(mp.fsum(t * t for t in y))
                v = [t / nrm for t in y]
            if max(v, key=abs) < 0:
                v = [-t for t in v]
            out.append([float(mp.fsum(a * b[j] for a, b in zip(v, basis)))
                        for j in range(len(xs))])
        return np.array(out)


def gershgorin_truncation(params, num_modes, ceiling):
    """The truncation K of the Gershgorin tail bound that the library used
    before its chi0 + c^2 bracket: chi_ub is the num_modes-th smallest
    upper end of the Gershgorin discs of the size-ceiling matrix, and the
    last row's disc has no row below it.  The walk past the last disc that
    reaches below chi_ub, the weight-growth cap and the return values are
    those of ``slepian._certified_truncation``."""
    c2 = params.c * params.c
    t = sl._basis_terms(params.N, params.nu, ceiling)
    d = t.chi0 + c2 * t.x2_diag
    e = np.zeros(ceiling + 1)  # |e_{k-1}| at k, |e_k| at k + 1
    np.multiply(-c2, t.x2_off, out=e[1:-1])
    radius = e[:-1] + e[1:]
    chi_ub = np.partition(d + radius, num_modes - 1)[num_modes - 1]
    k0 = ceiling - int(np.argmin((d - radius > chi_ub)[::-1]))
    w = t.inv_sqrt_h[k0 - 1:].tolist()
    prod = 1.0
    for k, (e_prev, d_k, e_k, w_prev, w_k) in enumerate(
            zip(e[k0:].tolist(), d[k0:].tolist(), e[k0 + 1:].tolist(), w, w[1:]), k0):
        prod *= e_prev * w_k / w_prev / (d_k - chi_ub - e_k)
        if prod < sl.TAIL_TOLERANCE:
            K = max(k + 1, num_modes + 2)
            if c2 == 0 or t.inv_sqrt_h[K - 1] <= sl._MAX_WEIGHT_GROWTH * t.inv_sqrt_h[0]:
                return K
            break
    return ceiling


def solve_at_truncation(params, num_modes, K):
    """The eigenpairs and mu of the first num_modes modes at the given
    truncation K, by the steps of ``slepian.solve_modes`` but with K fixed:
    the spectral matrix, its eigensolve and the mu closed form.  The
    coefficient tail must pass the solver's check at K."""
    T = sl.build_spectral_matrix(params, K)
    eig = sl.symtri_eigen(T, num_modes)
    assert sl._tails_ok(eig), f"coefficient tail above tolerance at K = {K}"
    return eig, sl._mu_values(params, T, eig)


@dataclass(frozen=True)
class TBasisIndex:
    N: int
    n: int
    nu: float

    def __post_init__(self):
        if self.N < 0 or self.n < 0:
            raise ValueError("T-basis indices must be >= 0")
        if self.nu <= -1:
            raise ValueError("T-basis weight exponent must exceed -1")


def t_norm_sq(idx):
    """h_{N,n} = integral_0^1 T^2 (1-x^2)^nu dx.

    Derived from the Jacobi orthogonality under u = 1 - 2x^2; the derivation
    is itself pinned by quadrature in the tests.
    """
    N, n, nu = idx.N, idx.n, idx.nu
    log_h = (2 * math.lgamma(N + 1) + math.lgamma(n + 1) + math.lgamma(n + nu + 1)
             - math.log(2) - math.log(2 * n + N + nu + 1)
             - math.lgamma(n + N + 1) - math.lgamma(n + N + nu + 1))
    return math.exp(log_h)


def x2_recurrence_coeffs(idx):
    """Coefficients (a, b, c) with x^2 T_{N,n} = a T_{N,n+1} + b T_{N,n} + c T_{N,n-1}.

    Derived, not transcribed, from the Jacobi multiplication recurrence
    u P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1} under u = 1 - 2 x^2 together
    with the degree-dependent R normalization, so they are finite for every
    index (a naive b_0 is 0/0 when N = nu = 0) and satisfy the
    self-adjointness identity a_n h_{n+1} = c_{n+1} h_n; c = 0 for n = 0 by
    convention.
    """
    N, n, nu = idx.N, idx.n, idx.nu
    s = 2 * n + N + nu
    a = -(n + N + 1) * (n + N + nu + 1) / ((s + 1) * (s + 2))
    if n == 0:
        b_jac = (nu - N) / (N + nu + 2)
        c = 0.0
    else:
        b_jac = (nu * nu - N * N) / (s * (s + 2))
        c = -n * (n + nu) / (s * (s + 1))
    b = 0.5 * (1.0 - b_jac)
    return a, b, c


def _log_r_const(N, n):
    """log of the R normalization N! n! / (n+N)!."""
    return math.lgamma(N + 1) + math.lgamma(n + 1) - math.lgamma(n + N + 1)


def t_basis(idx, x):
    """Radial basis T^nu_{N,n}(x) = x^(N+1/2) R_{N,n}(x) on (0, 1].

    Returns the continuous limit 0 at x = 0.  ``x`` may be an ndarray.
    """
    N, n, nu = idx.N, idx.n, idx.nu
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("t_basis requires 0 <= x <= 1")
    c = math.exp(_log_r_const(N, n))
    rad = jacobi_term(n, N, nu, 1.0 - 2.0 * x * x)
    out = c * x ** (N + 0.5) * rad
    return out if out.ndim else float(out)


def _L_classical_once(c, N, f, x, h):
    fm2, fm1, f0, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h))
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    return (1 - x * x) * d2 - 2 * x * d1 + ((0.25 - N * N) / (x * x) - c * c * x * x) * f0


def apply_L_classical(c, N, f, x, h=1e-4):
    """The classical (unweighted) prolate operator

        (1-t^2) y'' - 2 t y' + ((1/4 - N^2)/t^2 - c^2 t^2) y

    kept as its own code path so the weight-zero reduction of apply_L can be
    regression-tested against it.
    """
    if not (2 * h < x < 1 - 2 * h):
        raise ValueError(f"stencil of width {h} out of domain at x={x}")
    coarse = _L_classical_once(c, N, f, x, h)
    fine = _L_classical_once(c, N, f, x, h / 2)
    return (16 * fine - coarse) / 15
