"""Special functions: Gamma and Bessel J of real order.

Besides the plain Bessel function two rescaled variants are used everywhere
in this package:

    j_small(nu, x)  = Gamma(nu+1) * (2/x)**nu * J_nu(x)     ("small-j", = 1 at x=0)
    j_script(nu, x) = sqrt(x) * J_nu(x)                     ("script-J")

Gamma is the standard library's ``math.gamma``.  Every Bessel value comes
from one of two longdouble (80-bit on x86) sums, returned in 64-bit
precision:

* one ascending series, ``_j_small_series_array``, for x <= _SERIES_CUTOFF:
  sum_k (-x^2/4)^k / (k! (nu+1)_k) over a scalar or an ndarray, stopped
  once the a-priori term bound (max x^2/4)^k / (k! |(nu+1)_k|) <= 1e-21;
  the power and Gamma prefactor is assembled in log space
  (``j_script_over_power_array``);
* one backward (Miller) recurrence for larger x, normalized through the
  Neumann-type sum  (x/2)**mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(x)
  valid for any fractional base order mu in [0, 1); orders in (-1, 0) step
  down from nu+1 and nu+2 (``j_small``).

The series cutoff is a fixed constant.  Pushing the series out to x ~ 2*order
for large orders loses 10+ digits to cancellation (the terms peak near
I_order(x) while the sum is O(1) or less), so the cutoff does not scale with
the order; the Miller branch is stable for every order >= 0 once x exceeds
the cutoff.  Cross-regime continuity is pinned by tests.
"""

import math

import numpy as np

__all__ = ["gamma_fn", "bessel_j", "j_small", "j_script"]

# Regime switch for bessel_j: ascending series below, Miller recurrence above.
_SERIES_CUTOFF = 12.0

# Absolute bound on the last series term (longdouble eps is ~1.1e-19).
_SERIES_TERM_BOUND = 1e-21

_LD = np.longdouble

# Gamma for real x; ValueError at the poles x = 0, -1, -2, ..., OverflowError
# once the result exceeds the double range (x > ~171.6).
gamma_fn = math.gamma


def _lgamma_ld(x):
    """log Gamma in longdouble via math.lgamma (double) -- adequate: it only
    rescales Miller sums whose final accuracy is set by the double output."""
    return _LD(math.lgamma(float(x)))


def _bessel_miller_ld(order, x):
    """Backward (Miller) recurrence for J_order(x), x above the series cutoff.

    Runs the two-term recurrence downward from a start order well past the
    turning point and rescales through the fractional Neumann sum
    (x/2)**mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(x), mu = frac(order).
    """
    x_ld = _LD(x)
    m_int = int(math.floor(order))
    mu = _LD(order) - m_int  # fractional base order in [0, 1)
    # start far enough above max(x, order) that the downward tail has decayed
    # below the target precision
    top = max(x, float(order))
    start = m_int + max(0, int(math.ceil(x - m_int))) + int(12.0 * top ** (1.0 / 3.0)) + 26
    jp = _LD(0.0)  # J~ at order q+1
    jc = _LD(1e-30)  # J~ at order q
    target = _LD(0.0)
    ssum = _LD(0.0)
    big = _LD(1e200)
    inv_big = _LD(1e-200)
    for q_off in range(start, -1, -1):
        q = mu + q_off
        jm = (2 * q / x_ld) * jc - jp
        jp, jc = jc, jm
        qm = q_off - 1
        if qm == m_int:
            target = jc
        if qm >= 0 and qm % 2 == 0:
            k = qm // 2
            w = np.exp(_lgamma_ld(mu + k) - _lgamma_ld(k + 1)) * (mu + 2 * k) if (mu > 0 or k > 0) \
                else np.exp(_lgamma_ld(mu + 1))
            ssum += w * jc
        if abs(jc) > big:
            jp *= inv_big
            jc *= inv_big
            ssum *= inv_big
            target *= inv_big
    scale = np.exp(mu * np.log(x_ld / 2)) / ssum
    return target * scale


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), real order >= 0, x >= 0.

    Absolute error <= 1e-12 for x <= 60 and order <= 40.
    """
    order = float(order)
    x = float(x)
    if x < 0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    if order < 0:
        raise ValueError(f"bessel_j requires order >= 0, got {order}")
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    if x <= _SERIES_CUTOFF:
        log_pref = _LD(order) * np.log(_LD(x) / 2) - _lgamma_ld(order + 1)
        return float(np.exp(log_pref) * _j_small_series_array(order, x))
    return float(_bessel_miller_ld(order, x))


def j_small(nu, x):
    """Normalized Bessel j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x); equals 1 at x=0.

    Defined for nu > -1.
    """
    nu = float(nu)
    x = float(x)
    if nu <= -1:
        raise ValueError(f"j_small requires nu > -1, got {nu}")
    if x < 0:
        raise ValueError(f"j_small requires x >= 0, got {x}")
    if x <= _SERIES_CUTOFF:
        return float(_j_small_series_array(nu, x))
    # large argument: rescale bessel_j through logs to dodge overflow in the
    # Gamma(nu+1) (2/x)^nu prefactor at large nu
    if nu >= 0:
        j = _bessel_miller_ld(nu, x)
    else:
        # nu in (-1, 0): step down from nonnegative orders (stable direction)
        j = (2 * (_LD(nu) + 1) / _LD(x)) * _bessel_miller_ld(nu + 1, x) \
            - _bessel_miller_ld(nu + 2, x)
    log_pref = _lgamma_ld(nu + 1) + _LD(nu) * np.log(_LD(2.0) / _LD(x))
    return float(np.exp(log_pref) * j)


def j_script(nu, x):
    """Normalized Bessel script-J: sqrt(x) * J_nu(x), nu >= -1/2.

    At x=0 the series limit is 0 for nu > -1/2 and sqrt(2/pi) at nu = -1/2.
    """
    nu = float(nu)
    x = float(x)
    if x < 0:
        raise ValueError(f"j_script requires x >= 0, got {x}")
    if nu < -0.5:
        raise ValueError(f"j_script limit diverges at x=0 for nu < -1/2 (nu={nu})")
    if x == 0.0:
        return math.sqrt(2.0 / math.pi) if nu == -0.5 else 0.0
    if nu < 0:
        # the (-1/2, 0) sliver, which bessel_j does not take
        return math.sqrt(x) * (x / 2.0) ** nu / gamma_fn(nu + 1.0) * j_small(nu, x)
    return math.sqrt(x) * bessel_j(nu, x)


def _j_small_series_array(nu, z):
    """j_small(nu, z) by its ascending series over a scalar or an ndarray z
    (longdouble out), nu > -1.

    Unchecked: accurate only for |z| <= _SERIES_CUTOFF, which every caller
    enforces.  The term count is fixed in advance by the first k with
    (max z^2/4)^k / (k! |(nu+1)_k|) <= _SERIES_TERM_BOUND, so an array of
    arguments costs one pass and no reduction per term.
    """
    mq = np.asarray(z, dtype=_LD)
    mq = mq * mq * _LD(-0.25)
    qmax = -float(mq if mq.ndim == 0 else mq.min(initial=0.0))
    nu_ld = _LD(nu)
    term = total = _LD(1.0)
    bound = 1.0
    for k in range(1, 400):
        term = term * mq / (k * (nu_ld + k))
        total = total + term
        bound *= qmax / (k * abs(nu + k))
        if bound <= _SERIES_TERM_BOUND:
            break
    return total


def j_script_over_power_array(order, z, power):
    """Vectorized j_script(order, z) / z**power for small-argument arrays.

    Computes sqrt(z) J_order(z) / z**power = z**(order + 1/2 - power)
    * j_order(z) / (2**order Gamma(order+1)) entirely in longdouble, with the
    power/Gamma prefactor assembled in log space so very high orders neither
    overflow nor underflow prematurely.  The series is valid only for
    |z| <= _SERIES_CUTOFF; larger arguments raise ValueError.
    """
    z = np.asarray(z, dtype=_LD)
    if z.size and np.max(np.abs(z)) > _SERIES_CUTOFF:
        raise ValueError(f"power series needs |z| <= {_SERIES_CUTOFF}, "
                         f"got {float(np.max(np.abs(z))):.6g}")
    small = _j_small_series_array(order, z)
    expo = _LD(order) + _LD(0.5) - _LD(power)
    log_pref = -_LD(order) * np.log(_LD(2.0)) - _lgamma_ld(order + 1)
    if expo == 0:
        scale = np.exp(log_pref)
    else:
        with np.errstate(divide="ignore"):  # z = 0: exp(-inf) = 0, the limit
            scale = np.exp(expo * np.log(z) + log_pref)
    return small * scale
