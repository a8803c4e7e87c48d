"""Special functions: Gamma and Bessel J of real order.

Besides the plain Bessel function two rescaled variants are used everywhere
in this package:

    j_small(nu, x)  = Gamma(nu+1) * (2/x)**nu * J_nu(x)     ("small-j", = 1 at x=0)
    j_script(nu, x) = sqrt(x) * J_nu(x)                     ("script-J")

Gamma is the standard library's ``math.gamma``.  Every scalar Bessel value
comes from one routine, ``_bessel``, by one of two sums, returned in 64-bit
precision on every platform; the public functions validate and rescale:

* x <= _SERIES_CUTOFF: the ascending series sum_k (-x^2/4)^k / (k! (nu+1)_k)
  in double-double (``_ddarith.jsmall_series``), over a scalar or an
  ndarray; near the cutoff its terms reach ~1e4 while the sum is O(1), so
  plain double would lose ~3 digits.  The power and Gamma prefactor
  (x/2)^p Gamma(a+1)^(+-1) is formed by ``_power_gamma``, the one routine
  that ``transforms`` also writes its closed forms through;
* larger x: one backward (Miller) recurrence in plain floats, normalized
  through the Neumann-type sum (x/2)**mu = sum_k (mu+2k) Gamma(mu+k)/k!
  J_{mu+2k}(x) for the fractional base order mu in [0, 1); orders in
  (-1, 0) step down from nu+1 and nu+2.  Against 40-digit mpmath its worst
  absolute error is 8.0e-16 over 240 points x in (12, 60]
  at orders {0, 0.5, 3.7, 10, 25, 40} (80-bit arithmetic: 7.4e-16), and
  8.7e-15 at (0.5, 1000), set by the double ``lgamma`` weights.

The series cutoff is a fixed constant.  Pushing the series out to x ~ 2*order
for large orders loses 10+ digits to cancellation (the terms peak near
I_order(x) while the sum is O(1) or less), so the cutoff does not scale with
the order; the Miller branch is stable for every order >= 0 once x exceeds
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
    """Start of the backward recurrence for J_order(x), far enough above
    max(x, order) that the downward tail has decayed below the precision."""
    m_int = int(math.floor(order))
    return m_int + max(0, int(math.ceil(x - m_int))) + int(12.0 * max(x, order) ** (1.0 / 3.0)) + 26


def _bessel_miller(order, x):
    """Backward (Miller) recurrence for J_order(x), x above the series cutoff.

    Runs the two-term recurrence downward from ``_miller_start`` and
    rescales through the fractional Neumann sum
    (x/2)**mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(x), mu = frac(order).
    """
    m_int = int(math.floor(order))
    mu = order - m_int  # fractional base order in [0, 1)
    jp = 0.0  # J~ at order q+1
    jc = 1e-30  # J~ at order q
    target = 0.0
    ssum = 0.0
    for q_off in range(_miller_start(order, x), -1, -1):
        q = mu + q_off
        jp, jc = jc, (2 * q / x) * jc - jp
        qm = q_off - 1
        if qm == m_int:
            target = jc
        if qm >= 0 and qm % 2 == 0:
            k = qm // 2
            w = math.exp(math.lgamma(mu + k) - math.lgamma(k + 1)) * (mu + 2 * k) \
                if (mu > 0 or k > 0) else math.exp(math.lgamma(mu + 1))
            ssum += w * jc
        if abs(jc) > 1e200:
            jp, jc, ssum, target = jp * 1e-200, jc * 1e-200, ssum * 1e-200, target * 1e-200
    return target * math.exp(mu * math.log(x / 2)) / ssum


def _power_gamma(x, p, a, sign):
    """(x/2)^p Gamma(a+1)^sign, sign = +1 or -1, for x > 0 and a > -1: from
    x**p 2**-p and Gamma where both and the result are normal floats, else
    in log space, which loses |p log(x/2)| ulps (9.3e-14 of J_40(1e-6)).
    Not (x/2)**p: x/2 rounds 5e-324 to 0."""
    try:
        x_p, gamma = x ** p, math.gamma(a + 1)
        power = x_p * 2.0 ** -p
        out = power * gamma if sign > 0 else power / gamma
        if _TINY <= min(x_p, power, out) and out < math.inf:
            return out
    except OverflowError:
        pass
    return math.exp(p * (math.log(x) - math.log(2.0)) + sign * math.lgamma(a + 1))


def _bessel(nu, x, small):
    """J_nu(x), or j_small(nu, x) where ``small``, for nu > -1 and x > 0.

    The series gives j_small, the Miller recurrence J_nu (stepping down from
    nu+1 and nu+2 for nu < 0); the other takes the ``_power_gamma`` factor.
    The Miller cost grows with max(nu, x): a start above _MILLER_MAX_ROWS
    is a ValueError.
    """
    if x <= _SERIES_CUTOFF:
        j = _j_small_series(nu, x)
        return j if small else _power_gamma(x, nu, nu, -1) * j
    if _miller_start(nu, x) > _MILLER_MAX_ROWS:
        raise ValueError(f"the Miller recurrence of J at order {nu} and x = {x} "
                         f"would run more than {_MILLER_MAX_ROWS} rows")
    if nu >= 0:
        j = _bessel_miller(nu, x)
    else:
        j = (2 * (nu + 1) / x) * _bessel_miller(nu + 1, x) - _bessel_miller(nu + 2, x)
    return _power_gamma(x, -nu, nu, 1) * j if small else j


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), real order >= 0, x >= 0.

    Absolute error <= 1e-12 for x <= 60 and order <= 40.  Non-finite order
    or x raises ValueError, as does a Miller start above _MILLER_MAX_ROWS.
    """
    order, x = _checked("bessel_j", "order", order, x, 0.0)
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    return _bessel(order, x, small=False)


def j_small(nu, x):
    """Normalized Bessel j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x); equals 1 at x=0.

    Defined for nu > -1 and finite x >= 0, within the row cap of ``bessel_j``.
    """
    nu, x = _checked("j_small", "nu", nu, x, -1.0, strict=True)
    return 1.0 if x == 0.0 else _bessel(nu, x, small=True)


def j_script(nu, x):
    """Normalized Bessel script-J: sqrt(x) * J_nu(x), nu >= -1/2, finite x >= 0.

    At x=0 the series limit is 0 for nu > -1/2 and sqrt(2/pi) at nu = -1/2.
    """
    nu, x = _checked("j_script", "nu", nu, x, -0.5)
    if x == 0.0:
        return math.sqrt(2.0 / math.pi) if nu == -0.5 else 0.0
    return math.sqrt(x) * _bessel(nu, x, small=False)


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
