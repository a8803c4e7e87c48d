"""Independent test oracles, kept away from the library code paths.

Everything here recomputes expected values from first principles: extended
precision series (mpmath), finite hypergeometric sums, adaptive Simpson
quadrature, Sturm-sequence bisection for tridiagonal spectra, and an
extended-precision eigensolve of the radial spectral matrix.
"""

import mpmath as mp

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


def slepian_mu_mp(nu, c, N, K, count, dps=80):
    """mu_{N,n}, n < count, from an extended-precision eigensolve of the
    K x K spectral matrix of Lambda = -L_{c,N,nu} in the orthonormalized
    T basis, through Slepian's coefficient-ratio formula.

    The norms h_k and the x^2 recurrence of T_{N,k}(x) = x^(N+1/2) N! k!/(k+N)!
    P_k^{(N,nu)}(1-2x^2) are written out here from the Jacobi polynomial
    identities; ``dps`` must leave digits to spare below the smallest
    coefficient A_0 (about mu itself).
    """
    with mp.workdps(dps):
        nu, c = mp.mpf(nu), mp.mpf(c)

        def h(k):
            return mp.exp(2 * mp.loggamma(N + 1) + mp.loggamma(k + 1)
                          + mp.loggamma(k + nu + 1) - mp.log(2 * (2 * k + N + nu + 1))
                          - mp.loggamma(k + N + 1) - mp.loggamma(k + N + nu + 1))

        T = mp.zeros(K, K)
        for k in range(K):
            s = 2 * k + N + nu
            a = -(k + N + 1) * (k + N + nu + 1) / ((s + 1) * (s + 2))
            b = (nu - N) / (N + nu + 2) if k == 0 else (nu * nu - N * N) / (s * (s + 2))
            T[k, k] = (N + 2 * k + mp.mpf(1) / 2) * (N + 2 * nu + 2 * k + mp.mpf(3) / 2) \
                + c * c * (1 - b) / 2
            if k < K - 1:
                T[k, k + 1] = T[k + 1, k] = c * c * a * mp.sqrt(h(k + 1) / h(k))
        E, Q = mp.eigsy(T)
        order = sorted(range(K), key=lambda i: E[i])
        pref = c ** N * mp.gamma(nu + 1) / (2 ** (N + 1) * mp.gamma(N + nu + 2) * mp.sqrt(h(0)))
        out = []
        for j in order[:count]:
            tip = sum(Q[k, j] / mp.sqrt(h(k)) for k in range(K))
            out.append(float(pref * Q[0, j] / tip))
        return out
