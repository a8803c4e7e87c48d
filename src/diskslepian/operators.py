"""Quadrature-backed integral and differential operators on the disk.

Reference implementations of the finite Hankel transform on (0,1), the
commuting second-order differential operator, the weighted finite Fourier
transform on the unit disk and its adjoint, plus the symmetrized Nystrom
discretization that serves as the independent spectral oracle for the
Hankel operator.

Radial and disk functions are plain callables and must accept ndarray
arguments (every function this package produces does).  The finite Hankel
transform and the differential operator also take a scalar or an ndarray
x; for an ndarray the Hankel transform builds one (x, t) kernel matrix by
the power series of ``specfun``, so its domain is c * x <= 12
(``_SERIES_CUTOFF``; larger arguments raise ValueError).

Accumulation detail: everything is evaluated in double, and the finite
Hankel transform adds its quadrature terms with a double-double pairwise
tree (``_ddarith.dd_sum``), so the sum itself adds no rounding noise unless
the terms cancel by more than ~16 digits.  The commute checks read that
sum through second differences with h = 1e-4, which amplify noise ~1e8
times: their worst error/tol is 0.0159 with a plain double sum, 0.0123
with the tree and 0.0106 with every step in 80-bit.  The weighted Fourier
transform sums in plain double.
"""

import numpy as np

from . import _ddarith as dd
from .linalg import EigenPair
from .quadrature import radial_rule
from .specfun import j_script_array, j_small

__all__ = ["apply_finite_hankel", "apply_L", "nystrom_hankel_eigs", "kernel_K",
           "apply_weighted_fourier", "apply_adjoint_fourier"]

_NYSTROM_MAX_C = 40.0


def apply_finite_hankel(nu, c, N, f, x, rule):
    """Finite Hankel transform H_{c,N,nu} f(x) by quadrature:

        integral_0^1 scriptJ_N(c x t) f(t) (1-t^2)^nu dt

    ``rule`` is a radial rule for the weight (1-t^2)^nu.  scriptJ_N(z) is
    z^(N+1/2) times a power series in z^2, so for f(t) = t^(N+1/2) q(t^2)
    the integrand is t^(2N+1) times a series in t^2, which
    radial_rule(n, nu, beta=N) integrates exactly up to the series terms of
    degree >= 2n in t^2; beta = N - j for an integer j >= 0 covers the same
    class (for integer N, beta = 0 does).  Any other rule.beta raises
    ValueError: the quadrature would be wrong without a warning (by 13% at
    N = 0.5 on beta = 0).  x is a scalar (float result) or an ndarray (array
    result of its shape), with 0 < x and c * x <= 12.  f is called once, on
    the rule's nodes.
    """
    beta = rule.beta
    if beta is None or N < beta or not float(N - beta).is_integer():
        raise ValueError(f"a radial rule with beta={beta} does not integrate the "
                         f"order-{N} Hankel transform; use radial_rule(n, nu, beta=N)")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("apply_finite_hankel requires x > 0")
    kern = j_script_array(N, c * x[..., None] * rule.nodes)
    terms = rule.weights * kern * np.asarray(f(rule.nodes), dtype=float)
    out = dd.to_float(dd.dd_sum(terms, np.zeros_like(terms), axis=-1))
    return out if out.ndim else float(out)


def _L_once(nu, c, N, f, x, h):
    fm2, fm1, f0, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h))
    d1 = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
    return ((1 - x * x) * d2 - 2 * (nu + 1) * x * d1
            + ((0.25 - N * N) / (x * x) - c * c * x * x) * f0)


def apply_L(nu, c, N, f, x, h=1e-4):
    """Differential operator L_{c,N,nu} applied to f at x by finite differences.

        L = (1-x^2) d^2/dx^2 - 2(nu+1) x d/dx + (1/4 - N^2)/x^2 - c^2 x^2

    5-point central stencils of width h, Richardson-extrapolated once.  x
    and h are scalars or broadcastable ndarrays; f is called on arrays of
    x's shape.  Note the sign convention: on the zero-bandwidth eigenbasis
    L T = -chi T with chi > 0; the spectral solver works with Lambda = -L
    throughout.
    """
    if not np.all((2 * h < x) & (x < 1 - 2 * h)):
        raise ValueError(f"stencil of width {h} out of domain at x={x}")
    coarse = _L_once(nu, c, N, f, x, h)
    fine = _L_once(nu, c, N, f, x, h / 2)
    return (16 * fine - coarse) / 15


def nystrom_hankel_eigs(nu, c, N, rule_size, count):
    """Spectrum of the finite Hankel operator by symmetrized Nystrom
    discretization; the independent oracle for the spectral method.

    Builds M_ij = sqrt(w_i w_j) scriptJ_N(c x_i x_j) over the (1-t^2)^nu
    Gauss rule and returns the ``count`` eigenpairs of largest magnitude
    (their values approximate sqrt(c) mu_{N,n}).  Eigenvectors are returned
    as node values of the eigenfunction phi, normalized so the quadrature
    inner product sum(w phi^2) is 1.

    The eigenvalue ladder of this operator decays geometrically: the
    smallest of the requested eigenvalues can sit 15+ orders of magnitude
    below the matrix norm, where even extended-precision entry rounding
    would dominate (Weyl).  The matrix is therefore assembled in compensated
    double-double arithmetic (~1e-32 relative entries) and the LAPACK
    eigenpairs are polished by deflated power iteration with double-double
    matvecs; the geometric decay makes each pair converge in a few steps.

    Domain: 0 <= c <= 40; larger (or NaN) c raises ValueError.  The kernel
    argument c x_i x_j reaches c, and the kernel is the one ascending series
    (``_ddarith.jsmall_series``, summed to a 1e-35 term bound) whose terms
    peak near I_N(c): against 50-digit mpmath (N in {0, 3}) the absolute
    error of ``_ddarith.script_j_int_order`` is below 1.5e-16 on [36, 40],
    4e-12 on [45, 50] and 4.6e-8 on [54, 60].  Lifting the cap needs a
    double-double Miller recurrence, vectorized over the kernel arguments.
    """
    if not 0 <= c <= _NYSTROM_MAX_C:
        raise ValueError(f"nystrom_hankel_eigs needs 0 <= c <= {_NYSTROM_MAX_C}, got c={c}")
    if count < 1 or rule_size < 4 * count:
        raise ValueError("need count >= 1 and rule_size >= 4*count")
    rule = radial_rule(rule_size, nu)
    n = len(rule.nodes)
    iu = np.triu_indices(n)
    zh, zl = dd.two_prod(rule.nodes[iu[0]], rule.nodes[iu[1]])
    zh, zl = dd.mul_d((zh, zl), float(c))
    kh, kl = dd.script_j_int_order(N, zh, zl)
    swh, swl = dd.sqrt(dd.two_prod(rule.weights[iu[0]], rule.weights[iu[1]]))
    eh, el = dd.mul((kh, kl), (swh, swl))
    Mh = np.zeros((n, n))
    Ml = np.zeros((n, n))
    Mh[iu], Ml[iu] = eh, el
    Mh[(iu[1], iu[0])], Ml[(iu[1], iu[0])] = eh, el
    # Mh is symmetric by construction; its pairs by descending |lambda|,
    # each vector signed so that its largest |entry| is positive
    vals, vecs = np.linalg.eigh(Mh)
    order = np.argsort(-np.abs(vals), kind="stable")[:count]
    out = []
    done = []  # refined dd vectors, largest |lambda| first
    for val, col in zip(vals[order], vecs[:, order].T):
        v = (col * np.copysign(1.0, col[np.abs(col).argmax()]), np.zeros(n))
        lam = (float(val), 0.0)
        # each step's power product M v is the Rayleigh product of the last
        mh, ml = dd.matvec(Mh, Ml, v[0], v[1])
        for _ in range(5):
            uh, ul = mh, ml
            for q in done:
                proj = dd.dot(q[0], q[1], uh, ul)
                corr = dd.mul((q[0], q[1]), proj)
                uh, ul = dd.add((uh, ul), dd.neg(corr))
            nrm = dd.sqrt(dd.dot(uh, ul, uh, ul))
            if not np.isfinite(nrm[0]) or nrm[0] == 0:
                break
            inv = dd.div((1.0, 0.0), nrm)
            uh, ul = dd.mul((uh, ul), inv)
            if np.dot(uh, v[0]) < 0:
                uh, ul = -uh, -ul
            v = (uh, ul)
            mh, ml = dd.matvec(Mh, Ml, uh, ul)
            new_lam = dd.dot(uh, ul, mh, ml)
            if abs(dd.to_float(new_lam) - dd.to_float(lam)) <= 1e-28 * abs(dd.to_float(new_lam)):
                lam = new_lam
                break
            lam = new_lam
        done.append(v)
        phi = v[0] / np.sqrt(rule.weights)
        out.append(EigenPair(dd.to_float(lam), phi))
    return out


def kernel_K(nu, c, y, z):
    """Iterated-transform kernel j_{nu+1}(c * ||y - z||) between disk points."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    dist = float(np.hypot(y[0] - z[0], y[1] - z[1]))
    return j_small(nu + 1, c * dist)


def apply_weighted_fourier(nu, c, f, y, rule):
    """Weighted finite Fourier transform on the disk:

        F_{nu,c} f(y) = integral_D e^{i c <x, y>} f(x) w_nu(x) dx

    evaluated with a polar tensor rule (``rule`` from disk_rule(.., nu)).
    f is either a callable f(x, y), vectorized over the rule's nodes, or an
    array of its values at the nodes (rule.xs, rule.ys), as in
    ``QuadratureRule.integrate``.
    """
    y = np.asarray(y, dtype=float)
    phase = np.exp(1j * c * (rule.xs * y[0] + rule.ys * y[1]))
    vals = np.asarray(f(rule.xs, rule.ys) if callable(f) else f)
    return complex(np.sum(rule.weights * phase * vals))


def apply_adjoint_fourier(nu, c, f, y, rule):
    """Adjoint transform: conjugated kernel e^{-i c <x, y>}, i.e. F_{nu,-c}."""
    return apply_weighted_fourier(nu, -c, f, y, rule)
