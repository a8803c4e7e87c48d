"""Minimal vectorized double-double (compensated) arithmetic.

A dd number is an unevaluated sum hi + lo of two float64 values with
|lo| <= ulp(hi)/2, giving ~31 significant digits.  Values are carried as
(hi, lo) pairs of ndarrays (or python floats); all operations broadcast.
Classic error-free transformations (Knuth two_sum, Dekker two_prod /
Veltkamp split) carry them.  This module holds the package's one ascending
Bessel series, ``jsmall_series``, for two users:

* ``specfun``, whose series cancels from terms of ~1e4 to an O(1) sum near
  x = 12: in dd the float64 result keeps every digit, whatever
  ``numpy.longdouble`` is on the platform;
* the Nystrom spectral oracle, whose matrix norm sits up to 16 orders of
  magnitude above the smallest eigenvalues under comparison, so entry
  rounding at double or extended precision would dominate them (Weyl:
  |dlambda| <= ||dM||); dd entries sit near 1e-32 relative.
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """two_sum when |a| >= |b| is guaranteed."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def add(x, y):
    xh, xl = x
    yh, yl = y
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return quick_two_sum(s, e)


def neg(x):
    return -x[0], -x[1]


def mul(x, y):
    xh, xl = x
    yh, yl = y
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def mul_d(x, c):
    """dd times exact double."""
    xh, xl = x
    p, e = two_prod(xh, c)
    e = e + xl * c
    return quick_two_sum(p, e)


def div(x, y):
    xh, xl = x
    yh, yl = y
    q1 = xh / yh
    p, e = two_prod(q1, yh)
    q2 = ((xh - p) - e + xl - q1 * yl) / yh  # xh - p is exact (Sterbenz)
    return quick_two_sum(q1, q2)


def sqrt(x):
    """dd square root (one Newton correction from the double root)."""
    xh, xl = x
    y = np.sqrt(xh)
    p, e = two_prod(y, y)
    r = add(x, (-p, -e))
    safe = np.where(y > 0, y, 1.0) if isinstance(y, np.ndarray) else (y if y > 0 else 1.0)
    corr = (r[0] + r[1]) / (2.0 * safe)
    corr = np.where(y > 0, corr, 0.0) if isinstance(y, np.ndarray) else (corr if y > 0 else 0.0)
    return quick_two_sum(y, corr)


def to_float(x):
    return x[0] + x[1]


def dd_sum(xh, xl, axis):
    """Sum a dd array along ``axis`` by a pairwise tree of dd additions."""
    xh = np.moveaxis(xh, axis, 0)
    xl = np.moveaxis(xl, axis, 0)
    while len(xh) > 1:
        h = len(xh) // 2
        sh, sl = add((xh[:h], xl[:h]), (xh[h:2 * h], xl[h:2 * h]))
        xh = np.concatenate([sh, xh[2 * h:]])
        xl = np.concatenate([sl, xl[2 * h:]])
    return xh[0], xl[0]


def matvec(mh, ml, vh, vl):
    """dd matrix @ dd vector -> dd vector."""
    ph, pe = two_prod(mh, vh[None, :])
    pe = pe + (mh * vl[None, :] + ml * vh[None, :])
    return dd_sum(ph, pe, axis=1)


def dot(uh, ul, vh, vl):
    ph, pe = two_prod(uh, vh)
    pe = pe + (uh * vl + ul * vh)
    return dd_sum(ph, pe, axis=0)


# order -> dd coefficients 1 / (k! (order+1)_k), k = 0, 1, ..., as far as
# any call has needed them.  Emptied when it holds _MAX_ORDERS orders, so a
# sweep over many orders does not grow it without bound
_SERIES_COEFFS = {}
_MAX_ORDERS = 256


def _series_coeffs(order, count):
    """At least the first ``count`` dd coefficients 1 / (k! (order+1)_k) of
    ``jsmall_series``, each from the one before it.  A longer request extends
    a copy of the cached list and stores it, so a list another caller holds
    never changes."""
    coeffs = _SERIES_COEFFS.get(order, [(1.0, 0.0)])
    if len(coeffs) < count:
        coeffs = list(coeffs)
        for k in range(len(coeffs), count):
            coeffs.append(div(coeffs[-1], mul_d(two_sum(order, float(k)), float(k))))
        if len(_SERIES_COEFFS) >= _MAX_ORDERS:
            _SERIES_COEFFS.clear()
        _SERIES_COEFFS[order] = coeffs
    return coeffs


def jsmall_series(order, zh, zl, tol):
    """dd sum of the normalized small-Bessel series

        j_order(z) = sum_k (-z^2/4)^k / (k! (order+1)_k),   order > -1,

    at the dd argument zh + zl: float scalars (the sum runs on Python
    floats) or arrays; zl = 0.0 for a plain float z.  The term count is
    fixed in advance by the a-priori bound (max z^2/4)^K / (K! (order+1)_K)
    <= tol on the last term, so an array costs one Horner pass and no
    reduction per term.  ``tol`` is absolute on the O(1) sum: 1e-21 serves
    a float64 result, 1e-35 the dd Nystrom kernel.

    The terms peak near I_order(|z|) while the sum is O(1), so the absolute
    error is about 1e-32 I_order(|z|): below 1e-27 for |z| <= 12, and the
    reason the Nystrom kernel stops at |z| = 40.
    """
    order = float(order)
    qh, ql = mul_d(mul((zh, zl), (zh, zl)), -0.25)
    qmax = -float(np.min(qh, initial=0.0))
    bound, K = 1.0, 0
    while bound > tol:
        K += 1
        bound *= qmax / (K * (order + K))
    coeffs = _series_coeffs(order, K + 1)
    sh, sl = coeffs[K]
    for c in reversed(coeffs[:K]):
        sh, sl = add(mul((sh, sl), (qh, ql)), c)
    return sh, sl


def script_j_int_order(N, zh, zl):
    """dd script-J of integer order: sqrt(z) J_N(z) = z^(N+1/2) jsmall / (2^N N!)."""
    small = jsmall_series(N, zh, zl, 1e-35)
    zp = sqrt((zh, zl))
    cur = (zh, zl)
    n = N
    while n > 0:  # z^N by repeated multiplication; N is small (angular order)
        if n & 1:
            zp = mul(zp, cur)
        cur = mul(cur, cur)
        n >>= 1
    out = mul(small, zp)
    scale = 1.0
    for i in range(1, N + 1):
        scale *= 2.0 * i  # 2^N N!, exact in double for any sane angular order
    if scale != 1.0:
        out = div(out, (scale, 0.0))
    return out
