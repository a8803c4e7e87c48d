"""Special functions: Gamma and Bessel J of real order.

Besides the plain Bessel function two rescaled variants are used everywhere
in this package:

    j_small(nu, x)  = Gamma(nu+1) * (2/x)**nu * J_nu(x)     ("small-j", = 1 at x=0)
    j_script(nu, x) = sqrt(x) * J_nu(x)                     ("script-J")

Gamma is the standard library's ``math.gamma``.  Every scalar Bessel value
comes from j_small, by one routine, ``_j_small``, and one of two sums,
returned in 64-bit precision on every platform as a mantissa and a binary
exponent; J and script-J are j_small times the power and Gamma factor
(x/2)^p / Gamma(a+1) of ``_power_gamma``, the one routine that
``transforms`` also writes its closed forms through.  Where j_small is
below the normal range, the factor takes its binary exponent instead, so
J stays finite where both alone would not (j_small(500, 2000) = 8.8e-369,
the factor e^842.5):

* x <= _SERIES_CUTOFF: the ascending series sum_k (-x^2/4)^k / (k! (nu+1)_k)
  in double-double (``_ddarith.jsmall_series``), over a scalar or an
  ndarray; near the cutoff its terms reach ~1e4 while the sum is O(1), so
  plain double would lose ~3 digits;
* larger x: one backward (Miller) recurrence on j_small itself, in plain
  floats, j_{q-1} = j_q - (x^2/4) j_{q+1} / (q (q+1)).  It holds no power
  and no Gamma, so nothing overflows where j_small is O(1) and J
  underflows (from order 262 at x = 13).  It runs on the ladder mu +
  integer, mu = nu - floor(nu) in [0, 1), one row below mu for nu in
  (-1, 0), and is normalized through the Neumann sum
  sum_k W_k j_{mu+2k} = 1, by Horner's rule in the ratios W_{k+1}/W_k,
  with W_0 = 1.  The trial values fall and rise again over about
  e^(0.7 x) (2^3593 at x = 5000), so they are scaled back into [1/2, 1)
  by a power of two whenever they leave [2^-500, 2^500]; the captured
  target is not scaled, and the sum of those powers is its exponent.
  Against 50-digit mpmath its worst relative error is 2.5e-14 over 152
  points, orders from -0.999 to 1000 and x from 12.5 to 60 (1.9e-16
  absolute, near a zero of J_0 at x = 40); ``bessel_j`` is within 3.4e-16
  absolute over 240 points x in (12, 60] at orders {0, 0.5, 3.7, 10, 25,
  40}, and j_small(0.5, x) within 1.5e-14 relative of sin(x)/x up to
  x = 20000.  Far above, ``bessel_j`` keeps the log-space factor's ulps:
  up to 2.9e-12 relative over 264 points x in [1000, 2000], orders 0.01x
  to 1.2x, and 6.7e-12 at x = 3000.

The series cutoff is a fixed constant.  Pushing the series out to x ~ 2*order
for large orders loses 10+ digits to cancellation (the terms peak near
I_order(x) while the sum is O(1) or less), so the cutoff does not scale with
the order; the Miller branch is stable for every order > -1 once x exceeds
the cutoff.  Cross-regime continuity is pinned by tests.
"""

import math

import numpy as np

from . import _ddarith as dd

__all__ = ["gamma_fn", "bessel_j", "j_small", "j_script"]

# Regime switch for bessel_j: ascending series below, Miller recurrence above.
_SERIES_CUTOFF = 12.0

# Absolute bound on the last series term, well below the float64 result's ulp.
_SERIES_TERM_BOUND = 1e-21

# Row cap of the Miller recurrence, about 0.05 s of Python steps.
_MILLER_MAX_ROWS = 10**5

_TINY = 2.0 ** -1022  # the smallest normal double

# The Miller recurrence rescales its trial values back into [1/_SCALE, _SCALE].
_SCALE = 2.0 ** 500

# Gamma for real x; ValueError at the poles x = 0, -1, -2, ..., OverflowError
# once the result exceeds the double range (x > ~171.6).
gamma_fn = math.gamma


def _checked(fn, name, nu, x, nu_min, strict=False):
    """(float(nu), float(x)) for ``fn``, whose order is ``name``; ValueError
    for a non-finite argument, x < 0, or nu < nu_min (<= where ``strict``)."""
    nu, x = float(nu), float(x)
    for label, value in ((name, nu), ("x", x)):
        if not math.isfinite(value):
            raise ValueError(f"{fn} requires a finite {label}, got {label}={value}")
    if x < 0:
        raise ValueError(f"{fn} requires x >= 0, got {x}")
    if nu < nu_min or strict and nu == nu_min:
        raise ValueError(f"{fn} requires {name} {'>' if strict else '>='} {nu_min}, got {nu}")
    return nu, x


def _j_small_series(nu, x):
    """j_small(nu, x) by the dd ascending series, as a float or a float
    array; |x| <= _SERIES_CUTOFF."""
    return dd.to_float(dd.jsmall_series(nu, x, 0.0, _SERIES_TERM_BOUND))


def _miller_start(order, x):
    """Start of the backward recurrence at order ``order``, far enough above
    max(x, order) that the downward tail has decayed below the precision."""
    m_int = int(math.floor(order))
    return m_int + max(0, int(math.ceil(x - m_int))) + int(12.0 * max(x, order) ** (1.0 / 3.0)) + 26


def _miller(order, x):
    """j_small(order, x) as a pair (m, e), j_small = m 2^e with
    1/2 < |m| < 2, by the backward (Miller) recurrence, for order > -1 and
    x above the series cutoff.

    Runs j_{q-1} = j_q - h j_{q+1} / (q (q+1)), h = x^2/4, down the ladder
    mu + n, mu = order - floor(order), from ``_miller_start`` to
    min(order, mu), and normalizes through the Neumann sum
    sum_k W_k j_{mu+2k} = 1, W_k = (mu+2k) Gamma(mu+k) h^k / (k! Gamma(mu+2k+1)),
    by Horner's rule in W_{k+1}/W_k = h (mu+k) / ((k+1) (mu+2k) (mu+2k+1)).
    The target is not rescaled once captured; ``shift`` keeps the binary
    exponent of the rescales since, so a j_small below the double range
    (8.8e-369 at (500, 2000)) keeps its digits.
    """
    m_int = math.floor(order)
    mu = order - m_int  # base order in [0, 1)
    h = 0.25 * x * x
    jp, jc, target, total, shift = 0.0, 1.0, 0.0, 0.0, 0  # trial j at orders q+1 and q
    for n in range(_miller_start(order, x) - 1, min(m_int, 0) - 1, -1):
        q = mu + n + 1  # one step down, from order q to mu + n
        jp, jc = jc, jc - h * jp / (q * (q + 1))
        if n == m_int:
            target, shift = jc, 0
        if n >= 0 and n % 2 == 0:
            k = n // 2
            ratio = h * ((mu + k) / (mu + 2 * k) if k else 1.0) / ((k + 1) * (mu + 2 * k + 1))
            total = jc + ratio * total
        size = abs(jc) + abs(jp)
        if not 1.0 / _SCALE <= size <= _SCALE:  # trial values span ~e^(0.7 x)
            e = -math.frexp(size)[1]  # back to [1/2, 1)
            jp, jc, total = math.ldexp(jp, e), math.ldexp(jc, e), math.ldexp(total, e)
            shift += e
    (m_target, e_target), (m_total, e_total) = math.frexp(target), math.frexp(total)
    return m_target / m_total, e_target - e_total + shift


def _power_gamma(x, p, a, e=0):
    """2^e (x/2)^p / Gamma(a+1) for x > 0 and a > -1: from x**p 2**-p and
    Gamma where both, their quotient and the result are normal floats, else
    in log space, which loses |p log(x/2)| ulps (9.3e-14 of J_40(1e-6)).
    Not (x/2)**p: x/2 rounds 5e-324 to 0."""
    try:
        x_p, gamma = x ** p, math.gamma(a + 1)
        power = x_p * 2.0 ** -p
        ratio = power / gamma
        out = math.ldexp(ratio, e)
        if _TINY <= min(x_p, power, ratio, out) and out < math.inf:
            return out
    except OverflowError:
        pass
    return math.exp(p * (math.log(x) - math.log(2.0)) - math.lgamma(a + 1) + e * math.log(2.0))


def _j_small(nu, x):
    """j_small(nu, x) for nu > -1 and x > 0 as a pair (m, e), j_small = m 2^e:
    the series up to the cutoff, the Miller recurrence above it, whose cost
    grows with max(nu, x): a start above _MILLER_MAX_ROWS is a ValueError."""
    if x <= _SERIES_CUTOFF:
        return math.frexp(_j_small_series(nu, x))
    if _miller_start(nu, x) > _MILLER_MAX_ROWS:
        raise ValueError(f"the Miller recurrence at order {nu} and x = {x} "
                         f"would run more than {_MILLER_MAX_ROWS} rows")
    return _miller(nu, x)


def _bessel_j(nu, x):
    """J_nu(x) for x > 0: j_small times (x/2)^nu / Gamma(nu+1), or, where
    j_small is below the normal range (8.8e-369 at (500, 2000)), its
    mantissa times the factor scaled by its binary exponent."""
    m, e = _j_small(nu, x)
    small = math.ldexp(m, e)
    if abs(small) < _TINY:
        return m * _power_gamma(x, nu, nu, e)
    return small * _power_gamma(x, nu, nu)


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), real order >= 0, x >= 0.

    j_small times ``_power_gamma``; absolute error <= 1e-12 for x <= 60 and
    order <= 40.  Non-finite order or x raises ValueError, as does a Miller
    start above _MILLER_MAX_ROWS.  Far past that domain J keeps the factor's
    log-space ulps, up to about 3e-12 relative at x = 1000 to 2000.
    """
    order, x = _checked("bessel_j", "order", order, x, 0.0)
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    return _bessel_j(order, x)


def j_small(nu, x):
    """Normalized Bessel j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x); equals 1 at x=0.

    Defined for nu > -1 and finite x >= 0, within the row cap of ``bessel_j``.
    """
    nu, x = _checked("j_small", "nu", nu, x, -1.0, strict=True)
    return 1.0 if x == 0.0 else math.ldexp(*_j_small(nu, x))


def j_script(nu, x):
    """Normalized Bessel script-J: sqrt(x) * J_nu(x), nu >= -1/2, finite x >= 0.

    At x=0 the series limit is 0 for nu > -1/2 and sqrt(2/pi) at nu = -1/2.
    """
    nu, x = _checked("j_script", "nu", nu, x, -0.5)
    if x == 0.0:
        return math.sqrt(2.0 / math.pi) if nu == -0.5 else 0.0
    return math.sqrt(x) * _bessel_j(nu, x)


def j_script_array(order, z):
    """Vectorized j_script(order, z) for small-argument arrays.

    sqrt(z) J_order(z) = z**(order+1/2) j_order(z) / (2**order Gamma(order+1)),
    the series in double-double and the prefactor in log space, so very
    high orders neither overflow nor underflow prematurely.  |z| above
    _SERIES_CUTOFF, or not finite, raises ValueError.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) <= _SERIES_CUTOFF):
        raise ValueError(f"power series needs |z| <= {_SERIES_CUTOFF}, "
                         f"got {float(np.max(np.abs(z))):.6g}")
    small = _j_small_series(order, z)
    log_pref = -order * math.log(2.0) - math.lgamma(order + 1)
    with np.errstate(divide="ignore"):  # z = 0: the limit, 0 (1 at order -1/2)
        log_power = 0.0 if order == -0.5 else (order + 0.5) * np.log(z)
    return small * np.exp(log_power + log_pref)
