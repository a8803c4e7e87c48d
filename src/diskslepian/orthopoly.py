"""Orthogonal polynomial families used by the disk spectral method.

Jacobi and Gegenbauer polynomials, complex disk (Zernike-type) polynomials
and two-variable Gegenbauer polynomials.  All evaluation goes through
three-term recurrences; hypergeometric sums appear only in test oracles.
The orthonormal Jacobi matrix of ``jacobi_recurrence`` defines the Gauss
rules and the radial Slepian basis; the classical P_k^{(a,b)} of
``jacobi_sequence`` serve the disk polynomials and the transform checks.

Two printed-formula corrections are baked in (both are forced by the
orthogonality/quadrature checks in the test suite):

* the disk polynomial carries the radial factor r^|n-m| (without it the
  function is not a polynomial in x, y and the Zernike orthogonality fails);
* the inner argument of the two-variable Gegenbauer is y / sqrt(1 - x^2)
  (the variant with the roles of x and y mixed is inconsistent with the
  polar substitution x = cos(theta), y = cos(phi) sin(theta)).
"""

import math

import numpy as np

__all__ = ["jacobi_recurrence", "jacobi_term", "jacobi_sequence",
           "gegenbauer_c", "disk_poly", "disk_poly_norm", "gegenbauer2d"]


def jacobi_recurrence(n, a, b):
    """Monic recurrence coefficients (alpha[0:n], beta[0:n]) of the weight
    (1-u)^a (1+u)^b on (-1,1), with beta[0] the total mass
    2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).  While Gamma(a+b+2) is
    finite the mass is that product of ``math.gamma`` values, within about
    1e-15; beyond (a + b >~ 170) it is formed in log space, which stays
    finite but loses about eps * lgamma(a+b+2) (1.4e-13 at a = 400).
    alpha and sqrt(beta[1:]) make the orthonormal Jacobi matrix J, the
    multiplication by u, whose eigenvalues are the Gauss nodes.  Entry k
    depends on k alone: a shorter n is a prefix, bitwise.  k = 0 (0/0 at
    a + b = 0) and k = 1 (x/0 near a + b = -1) take silent finite branches.
    """
    apb = a + b
    k = np.arange(n, dtype=float)
    den = 2 * k + apb
    with np.errstate(all="ignore"):
        alpha = (b * b - a * a) / (den * (den + 2))
        beta = 4 * k * (k + a) * (k + b) * (k + apb) / (den * den * (den + 1) * (den - 1))
    lo, hi = sorted((a, b))
    try:
        # the larger Gamma is divided first, so no partial product overflows
        beta[0] = 2.0 ** (apb + 1) * (math.gamma(hi + 1) / math.gamma(apb + 2)
                                      * math.gamma(lo + 1))
    except OverflowError:
        with np.errstate(over="ignore"):
            beta[0] = np.exp((apb + 1) * math.log(2.0) + math.lgamma(a + 1)
                             + math.lgamma(b + 1) - math.lgamma(apb + 2))
    alpha[0] = (b - a) / (apb + 2)
    if n > 1:
        beta[1] = 4 * (a + 1) * (b + 1) / ((apb + 2) * (apb + 2) * (apb + 3))
    return alpha, beta


def jacobi_sequence(nmax, a, b, u):
    """All Jacobi values P_0^{(a,b)}(u) .. P_nmax(u) by the three-term
    recurrence, an array of shape (nmax+1,) + shape(u); ``u`` may be a
    scalar or ndarray."""
    u = np.asarray(u, dtype=np.result_type(u, float))
    vals = [np.ones_like(u), (a + 1) + (a + b + 2) * (u - 1) / 2]
    for n in range(1, nmax):
        c1 = 2 * (n + 1) * (n + a + b + 1) * (2 * n + a + b)
        c2 = (2 * n + a + b + 1) * (a * a - b * b)
        c3 = (2 * n + a + b) * (2 * n + a + b + 1) * (2 * n + a + b + 2)
        c4 = 2 * (n + a) * (n + b) * (2 * n + a + b + 2)
        vals.append(((c2 + c3 * u) * vals[-1] - c4 * vals[-2]) / c1)
    return np.array(vals[:nmax + 1], dtype=u.dtype)


def jacobi_term(n, a, b, u):
    """P_n^{(a,b)}(u) alone, the last row of ``jacobi_sequence(n, a, b, u)``."""
    return jacobi_sequence(n, a, b, u)[n]


def gegenbauer_c(n, order, x):
    """Gegenbauer polynomial C_n^order(x); requires order > -1/2, order != 0.

    The order = 0 limit needs a rescaled (Chebyshev) normalization that the
    disk constructions never exercise, so it is rejected.
    """
    if n < 0:
        raise ValueError("Gegenbauer degree must be >= 0")
    if order == 0:
        raise ValueError("Gegenbauer order 0 is excluded (normalization "
                         "convention is ambiguous)")
    if order <= -0.5:
        raise ValueError("Gegenbauer order must exceed -1/2")
    x = np.asarray(x, dtype=np.result_type(x, float))
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 2 * order * x
    for k in range(1, n):
        prev, cur = cur, (2 * (k + order) * x * cur - (k + 2 * order - 1) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def _pochhammer_ratio_log(m, nu):
    """log( m! / (nu+1)_m )."""
    return (math.lgamma(m + 1) + math.lgamma(nu + 1) - math.lgamma(nu + 1 + m))


def disk_poly(n, m, nu, r, theta):
    """Disk (Zernike-type) polynomial D^nu_{n,m} at polar (r, theta).

    D^nu_{n,m} = (-1)^q q!/(nu+1)_q * r^|n-m| e^{i(n-m)theta}
                 * P_q^{(|m-n|, nu)}(1 - 2 r^2),          q = min(n, m).

    The r^|n-m| factor makes D a genuine polynomial in (x, y), and the
    prefactor uses the index-symmetric q = min(n, m): both choices are
    pinned by the orthogonality relation <D_{n,m}, D_{l,k}> =
    delta delta / pi^nu_{m,n}, which fails under quadrature without them.
    ``r`` and ``theta`` may be ndarrays; scalar input returns a complex.
    """
    if n < 0 or m < 0:
        raise ValueError("disk polynomial indices must be >= 0")
    if nu <= -1:
        raise ValueError("disk weight exponent must exceed -1")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    q = min(n, m)
    p = abs(n - m)
    pref = (-1.0) ** q * math.exp(_pochhammer_ratio_log(q, nu))
    rad = jacobi_term(q, p, nu, 1.0 - 2.0 * r ** 2)
    out = pref * r ** p * np.exp(1j * (n - m) * theta) * rad
    return out if out.ndim else complex(out)


def disk_poly_norm(n, m, nu):
    """Squared norm <D_{n,m}, D_{n,m}>_nu = 1 / pi^nu_{m,n}."""
    if n < 0 or m < 0 or nu <= -1:
        raise ValueError("invalid disk polynomial index")
    log_val = (math.log(nu + 1) - math.log(m + n + nu + 1)
               + _pochhammer_ratio_log(n, nu) + _pochhammer_ratio_log(m, nu))
    return math.exp(log_val)


def gegenbauer2d(n, k, nu, x, y):
    """Two-variable Gegenbauer polynomial
    P^nu_{n,k}(x, y) = C_{n-k}^{nu+k+1/2}(x) (1-x^2)^{k/2} C_k^nu(y / sqrt(1-x^2)).

    Requires 0 <= k <= n and |x| < 1.  ``x`` and ``y`` may be ndarrays;
    scalar input returns a float.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) >= 1):
        raise ValueError("gegenbauer2d requires |x| < 1")
    s = np.sqrt(1.0 - x * x)
    outer = gegenbauer_c(n - k, nu + k + 0.5, x)
    inner = gegenbauer_c(k, nu, y / s) if k > 0 else 1.0
    out = outer * s ** k * inner
    return out if out.ndim else float(out)
