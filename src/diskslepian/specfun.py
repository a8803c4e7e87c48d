"""Scalar special functions: Gamma and Bessel J of real order.

Besides the plain Bessel function two rescaled variants are used everywhere
in this package:

    j_small(nu, x)  = Gamma(nu+1) * (2/x)**nu * J_nu(x)     ("small-j", = 1 at x=0)
    j_script(nu, x) = sqrt(x) * J_nu(x)                     ("script-J")

Everything is evaluated in 64-bit output precision.  Internally the Bessel
routines accumulate in ``numpy.longdouble`` (80-bit on x86) so that the
alternating power series keeps ~15 significant digits up to the regime
switch.  Two regimes:

* ascending power series for x <= _SERIES_CUTOFF,
* backward (Miller) recurrence for larger x, normalized through the
  Neumann-type sum  (x/2)**mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(x)
  valid for any fractional base order mu in [0, 1).

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

_LD = np.longdouble

# Lanczos coefficients, g = 7, n = 9 (Godfrey's tabulation).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


def gamma_fn(x):
    """Gamma function for real x, x not a non-positive integer.

    Lanczos approximation with the reflection formula for x < 0.5.
    Relative error <= 1e-13 on [0.5, 50].  Raises OverflowError once the
    result exceeds the double range (x > ~171.6).
    """
    x = float(x)
    if x <= 0 and x == math.floor(x):
        raise GammaPoleError(f"gamma_fn pole at non-positive integer x={x}")
    if x < 0.5:
        # Gamma(x) = pi / (sin(pi x) * Gamma(1-x))
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    log_val = 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)
    if log_val > 709.0:
        raise OverflowError(f"gamma_fn({x}) exceeds double range")
    return math.exp(log_val)


def _lgamma_ld(x):
    """log Gamma in longdouble via math.lgamma (double) -- adequate: it only
    rescales Miller sums whose final accuracy is set by the double output."""
    return _LD(math.lgamma(float(x)))


def _bessel_series_ld(order, x):
    """Ascending series for J_order(x) in longdouble.  order > -1, x >= 0."""
    order = _LD(order)
    x = _LD(x)
    if x == 0:
        return _LD(1.0) if order == 0 else _LD(0.0)
    q = x * x / 4
    # term_k = (-1)^k (x/2)^(order+2k) / (k! Gamma(order+k+1)), built recursively
    log_t0 = order * np.log(x / 2) - _lgamma_ld(order + 1)
    term = np.exp(log_t0)
    total = term
    k = 0
    while True:
        k += 1
        term *= -q / (k * (order + k))
        total += term
        if abs(term) <= np.finfo(_LD).eps * abs(total) + _LD(1e-300):
            break
        if k > 600:  # unreachable for x <= cutoff; guards misuse
            break
    return total


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
        return float(_bessel_series_ld(order, x))
    return float(_bessel_miller_ld(order, x))


def _j_small_series_ld(nu, x):
    """Series for j_small: sum_k (-1)^k (x^2/4)^k / (k! (nu+1)_k), longdouble."""
    nu = _LD(nu)
    q = _LD(x) * _LD(x) / 4
    term = _LD(1.0)
    total = term
    k = 0
    while True:
        k += 1
        term *= -q / (k * (nu + k))
        total += term
        if abs(term) <= np.finfo(_LD).eps * abs(total) + _LD(1e-300):
            break
        if k > 600:
            break
    return total


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
        return float(_j_small_series_ld(nu, x))
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
    """Normalized Bessel script-J: sqrt(x) * J_nu(x).

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
        # only the (-1/2, 0) sliver reaches here; series is valid for nu > -1
        val = float(_j_small_series_ld(nu, x))
        return math.sqrt(x) * val * (x / 2.0) ** nu / gamma_fn(nu + 1.0)
    return math.sqrt(x) * bessel_j(nu, x)


def _j_small_series_array(nu, z):
    """Vectorized j_small series over an ndarray of arguments (longdouble).

    Valid for |z| <= ~12; used by quadrature-heavy operator code where every
    kernel argument is small.  Returns a longdouble array.
    """
    nu = _LD(nu)
    q = np.asarray(z, dtype=_LD)
    q = q * q / 4
    term = np.ones_like(q)
    total = term.copy()
    eps = np.finfo(_LD).eps
    for k in range(1, 400):
        term = term * (-q / (k * (nu + k)))
        total += term
        if np.max(np.abs(term)) <= eps * max(np.max(np.abs(total)), _LD(1e-30)):
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
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = small[pos] * np.exp(expo * np.log(z[pos]) + log_pref)
    if np.any(~pos):
        if expo == 0:
            out[~pos] = small[~pos] * np.exp(log_pref)
        # expo > 0: limit 0, already set
    return out
