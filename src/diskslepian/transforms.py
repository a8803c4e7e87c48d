"""Closed-form images of orthogonal bases under the weighted transforms.

Three families:

* ``lemma1_rhs`` -- the closed form of the finite Hankel transform of a
  Jacobi-weighted radial polynomial (script-J of a shifted order over a
  power); this identity carries no suspect constant and is verified against
  quadrature at 1e-9.

* ``disk_transform_closed`` -- the weighted Fourier image of a disk
  polynomial: C * (2/rho)^(nu+1) J_{nu+n+m+1}(rho) e^{i(n-m) vartheta}.

* ``gegenbauer2d_transform_closed`` -- the weighted Fourier image of a
  two-variable Gegenbauer polynomial P^{nu+1/2}_{n,k}:
  Z * rho^-(nu+1) J_{nu+n+1}(rho) sin(phi)^k C_{n-k}^{nu+k+1}(cos phi).

Constants policy: both families ship closed-form constants,

    C_{n,m} = i^(n+m) Gamma(nu+2),
    Z_{n,k} = i^n 2^(nu+1) Gamma(nu+2) (2nu+1)_k / k!,

checked against ``verification.quadrature_constant`` (one disk-rule
transform divided by the shape at a fixed reference point) in the
theorem41 verify suite and the test suite.  The printed prefactors fail
their own consistency anchor (the n=m=0 transform of the constant function
must equal the iterated-kernel value j_{nu+1}(rho), which pins C_{0,0} =
Gamma(nu+2)), so no result uses them; every result carries the
shipped/printed ratio, from which the printed form is recovered as
value / discrepancy_log.

Shape corrections relative to the printed statements (both forced by
constant-free two-point ratio tests and by the radial structure of the
angular reduction): the disk image carries the phase e^{i(n-m) vartheta} of
its operand, and the two-variable image carries rho^-(nu+1) (not rho^(k-n))
together with a sin(phi)^k factor, without which the image of a y-odd
polynomial would be even in phi.

Domain (else ValueError): nu > -1, and nu != -1/2 for the Gegenbauer
family, where its inner order vanishes; integer indices >= 0 with k <= n;
finite angle; 0 < rho <= 60 and Bessel order <= 40, where ``j_small`` is
validated.  Every closed form goes through ``specfun._power_gamma`` and
``j_small``: x^-q J_a(x) = 2^-q (x/2)^(a-q) Gamma(a+1)^-1 j_small(a, x),
whose factors neither overflow nor underflow to a wrong limit at tiny x.
So ``lemma1_rhs`` is right for every x > 0, down to 5e-324, and at Bessel
orders up to 261, pinned to 1e-13 by tests at 199 and 261.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

from .orthopoly import gegenbauer_c
from .specfun import _power_gamma, gamma_fn, j_small

__all__ = ["ClosedFormResult", "lemma1_rhs", "disk_transform_closed",
           "gegenbauer2d_transform_closed"]


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form transform value and ``discrepancy_log``, the
    shipped/printed constant ratio."""

    value: complex
    discrepancy_log: complex


def lemma1_rhs(alpha, beta, n, x):
    """Closed form of the finite Hankel transform of the Jacobi radial basis:

        2^beta Gamma(beta+n+1)/n! * scriptJ_{alpha+beta+2n+1}(x) / x^(beta+1)
    """
    if x <= 0:
        raise ValueError("lemma1_rhs requires x > 0")
    a = alpha + beta + 2 * n + 1
    return (gamma_fn(beta + n + 1) / (math.sqrt(2.0) * math.factorial(n))
            * _power_gamma(x, alpha + 2 * n + 0.5, a, -1) * j_small(a, x))


def _rising(a, k):
    """Pochhammer symbol (a)_k as a product (keeps the sign for a < 0)."""
    return math.prod(a + j for j in range(k))


def _disk_shape(nu, n, m, rho, vartheta):
    # = (2/rho)^(nu+1) J_{nu+n+m+1}(rho)
    a = nu + n + m + 1
    return (_power_gamma(rho, n + m, a, -1) * j_small(a, rho)
            * cmath.exp(1j * (n - m) * vartheta))


def _gegen2d_shape(nu, n, k, rho, phi):
    # = rho^-(nu+1) J_{nu+n+1}(rho)
    a = nu + n + 1
    return (2.0 ** -(nu + 1) * _power_gamma(rho, n, a, -1) * j_small(a, rho)
            * math.sin(phi) ** k * float(gegenbauer_c(n - k, nu + k + 1, math.cos(phi))))


def _disk_constant(nu, n, m):
    return 1j ** ((n + m) % 4) * gamma_fn(nu + 2)


def _gegen2d_constant(nu, n, k):
    return (1j ** (n % 4) * 2.0 ** (nu + 1) * gamma_fn(nu + 2)
            * _rising(2 * nu + 1, k) / math.factorial(k))


def _paper_disk_constant(nu, n, m):
    q = min(n, m)
    return ((-1.0) ** m * (nu + 1) * 1j ** (n - m)
            * gamma_fn(q + 1) / gamma_fn(nu + q + 1))


def _paper_gegen2d_constant(nu, n, k):
    return (2.0 ** (nu + 1) * gamma_fn(nu + 1) * math.pi
            * (-1.0) ** n * _rising(2 * nu + 1, n) / (1j ** k * math.factorial(2 * n)))


def _check_domain(nu, indices, rho, angle, order):
    if not nu > -1:
        raise ValueError(f"nu must exceed -1, got {nu}")
    if any(not isinstance(i, numbers.Integral) or i < 0 for i in indices):
        raise ValueError("indices must be integers >= 0")
    if not math.isfinite(angle):
        raise ValueError("the angle must be finite")
    if not 0 < rho <= 60:
        raise ValueError(f"rho must be in (0, 60], got {rho}")
    if order > 40:
        raise ValueError(f"Bessel order {order:g} exceeds 40")


def disk_transform_closed(nu, n, m, rho, vartheta):
    """Closed-form weighted Fourier transform (c=1) of the disk polynomial
    D^nu_{n,m}, evaluated at y = (rho cos vartheta, rho sin vartheta)."""
    _check_domain(nu, (n, m), rho, vartheta, nu + n + m + 1)
    const = _disk_constant(nu, n, m)
    return ClosedFormResult(const * _disk_shape(nu, n, m, rho, vartheta),
                            const / _paper_disk_constant(nu, n, m))


def gegenbauer2d_transform_closed(nu, n, k, rho, phi):
    """Closed-form weighted Fourier transform (c=1, weight w_nu) of the
    two-variable Gegenbauer polynomial P^{nu+1/2}_{n,k} at
    y = (rho cos phi, rho sin phi)."""
    _check_domain(nu, (n, k), rho, phi, nu + n + 1)
    if nu == -0.5:
        raise ValueError("the Gegenbauer family needs nu != -1/2")
    if not k <= n:
        raise ValueError("need 0 <= k <= n")
    const = _gegen2d_constant(nu, n, k)
    return ClosedFormResult(const * _gegen2d_shape(nu, n, k, rho, phi),
                            const / _paper_gegen2d_constant(nu, n, k))
