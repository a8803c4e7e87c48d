"""Named verification suites behind the command-line ``verify`` command.

Every suite returns a list of Check records (name, measured error, tolerance,
pass flag, optional detail).  This module is the one place that defines the
check grids and tolerances: the acceptance tests run the full suites through
``run_suite`` and assert that every check passes, with a pinned check count.
``quick=True`` shrinks parameter grids (not tolerances) to keep the run to a
few seconds.

The lemma1 suite restricts its grid (``lemma1_grid``) to points where the
identity value is at least ``LEMMA1_FLOOR``, resolvable above the double
cancellation floor of the library quadrature (the transform of a
high-degree basis function at small argument can be ~1e-24 of the
integrand scale); the acceptance tests check the corners below that floor
against an arbitrary-precision oracle at the same ``LEMMA1_TOL``.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from . import slepian as sl
from . import transforms as tr
from .orthopoly import disk_poly, gegenbauer2d, jacobi_term
from .quadrature import disk_rule, radial_rule

__all__ = ["Check", "run_suite", "SUITES", "PARAM_GRID", "LEMMA1_TOL", "LEMMA1_FLOOR",
           "lemma1_grid", "quadrature_constant"]

# (nu, c, N) points of the full commute and nystrom suites
PARAM_GRID = [(nu, c, N) for nu in (0.0, 1.0, 2.5) for c in (0.5, 1.0, 5.0) for N in (0, 1, 3)]
LEMMA1_TOL = 1e-9
LEMMA1_FLOOR = 1e-7


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tol: float
    passed: bool
    detail: str = ""


def _check(name, error, tol, detail=""):
    return Check(name, float(error), float(tol), bool(error <= tol), detail)


def quadrature_constant(family, nu, n, m):
    """Oracle for the transform constants C_{n,m} ("disk") and Z_{n,m}
    ("gegen2d"): the disk-rule transform of D^nu_{n,m} or P^{nu+1/2}_{n,m}
    divided by the closed-form shape at one fixed reference point.

    At rho = 3.7 no Bessel factor J_{nu+1..nu+6}, nu in (-1, 7.5], is near a
    zero; the oracle meets the closed forms there to 2.3e-12 relative over
    disk n+m <= 5 and Gegenbauer n <= 4 (worst: a near-zero C_4^{nu+1}).
    """
    rule = disk_rule(150, 256, float(nu))
    rho, angle = 3.7, 0.7
    if family == "disk":
        vals = disk_poly(n, m, nu, rule.rs, rule.angles)
        shape = tr._disk_shape(nu, n, m, rho, angle)
    elif family == "gegen2d":
        vals = gegenbauer2d(n, m, nu + 0.5, rule.xs, rule.ys)
        shape = tr._gegen2d_shape(nu, n, m, rho, angle)
    else:
        raise ValueError(f"unknown transform family {family!r}")
    return _fourier(nu, rule, vals, rho, angle) / shape


def _fourier(nu, rule, vals, rho, angle):
    """Weighted Fourier transform (c = 1) of node values at y = rho e^{i angle}."""
    return ops.apply_weighted_fourier(nu, 1.0, vals, (rho * math.cos(angle), rho * math.sin(angle)),
                                      rule)


def _ratio_error(nu, rule, vals, shape, p1, p2):
    """Relative error of the two-point ratio of the quadrature transform, at
    the (rho, angle) points p1 and p2, against that of ``shape(rho, angle)``:
    a check of the closed form that needs no constant."""
    q = _fourier(nu, rule, vals, *p1) / _fourier(nu, rule, vals, *p2)
    return abs(q - shape(*p1) / shape(*p2)) / abs(q)


def lemma1_grid(quick=False):
    """The lemma1 suite's grid, corners below LEMMA1_FLOOR included: one
    (a, b, n, xs, rhs) per Jacobi basis element, rhs its closed form at xs."""
    params = (0.0, 0.5, 1.0, 2.5)
    xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    for a in params:
        for b in params:
            for n in range(4 if quick else 7):
                yield a, b, n, xs, np.array([tr.lemma1_rhs(a, b, n, x) for x in xs])


def suite_lemma1(quick=False):
    """Finite Hankel transform of the Jacobi basis: quadrature vs closed form."""
    checks = []
    for (a, b), cases in itertools.groupby(lemma1_grid(quick), key=lambda g: g[:2]):
        rule = radial_rule(240, b, beta=a)
        for _, _, n, xs, rhs in cases:
            kept = np.abs(rhs) >= LEMMA1_FLOOR
            f = lambda t: t ** (a + 0.5) * jacobi_term(n, a, b, 1 - 2 * t * t)
            lhs = ops.apply_finite_hankel(b, 1.0, a, f, xs[kept], rule)
            for x, val, ref in zip(xs[kept], lhs, rhs[kept]):
                checks.append(_check(f"lemma1 a={a} b={b} n={n} x={x}",
                                     abs(val - ref) / abs(ref), LEMMA1_TOL))
    return checks


def suite_theorem41(quick=False):
    """Disk polynomial transform: ratio tests, full identity, constants."""
    checks = []
    nus = [0.0, 1.0] if quick else [0.0, 1.0, 2.5]
    all_pairs = [(n, m) for n in range(6) for m in range(6 - n)]
    ratio_pairs = [(0, 0), (1, 0), (2, 1), (0, 3)] if quick else all_pairs
    grid_pairs = [(1, 0), (2, 1)] if quick else [(1, 0), (2, 1), (1, 2), (3, 0), (0, 3)]
    for nu in nus:
        rule = disk_rule(150, 256, nu)
        c00 = quadrature_constant("disk", nu, 0, 0)
        gamma_val = math.gamma(nu + 2)
        checks.append(_check(f"thm41 c00 nu={nu} equals Gamma(nu+2)",
                             abs(c00 - gamma_val) / gamma_val, 1e-9,
                             f"derived={c00:.12g}"))
        for (n, m) in ratio_pairs:
            vals = disk_poly(n, m, nu, rule.rs, rule.angles)
            shape = functools.partial(tr._disk_shape, nu, n, m)
            checks.append(_check(f"thm41 ratio nu={nu} n={n} m={m}",
                                 _ratio_error(nu, rule, vals, shape, (0.8, 0.9), (1.6, 0.9)),
                                 1e-6))
        for (n, m) in grid_pairs:
            vals = disk_poly(n, m, nu, rule.rs, rule.angles)
            errs, scale = [], 0.0
            for rho in (0.6, 1.0, 1.45, 1.9, 2.4):
                for vth in (0.3, 0.9, 1.6, 2.5, 4.0):
                    cf = tr.disk_transform_closed(nu, n, m, rho, vth).value
                    errs.append(abs(_fourier(nu, rule, vals, rho, vth) - cf))
                    scale = max(scale, abs(cf))
            checks.append(_check(f"thm41 full grid nu={nu} n={n} m={m}",
                                 max(errs) / scale, 1e-7))
    if not quick:
        # the shipped C_{n,m}, read off the closed form away from the
        # oracle's reference point, against the quadrature oracle
        for nu in [-0.9] + nus:
            for (n, m) in all_pairs:
                const = (tr.disk_transform_closed(nu, n, m, 1.9, 0.4).value
                         / tr._disk_shape(nu, n, m, 1.9, 0.4))
                checks.append(_check(f"thm41 constant nu={nu} n={n} m={m}",
                                     abs(quadrature_constant("disk", nu, n, m) - const)
                                     / abs(const), 1e-9))
    return checks


def suite_theorem42(quick=False):
    """Two-variable Gegenbauer transform: constant-free ratio identities."""
    checks = []
    nus = [0.0, 1.0] if quick else [0.0, 1.0, 2.5]
    for nu in nus:
        rule = disk_rule(150, 256, nu)
        pairs = [(n, k) for n in range(5) for k in range(n + 1)]
        if quick:
            pairs = [(0, 0), (2, 1), (3, 3)]
        for (n, k) in pairs:
            vals = gegenbauer2d(n, k, nu + 0.5, rule.xs, rule.ys)
            shape = functools.partial(tr._gegen2d_shape, nu, n, k)
            checks.append(_check(f"thm42 rho-ratio nu={nu} n={n} k={k}",
                                 _ratio_error(nu, rule, vals, shape, (0.9, 1.1), (1.7, 1.1)),
                                 1e-6))
            checks.append(_check(f"thm42 phi-ratio nu={nu} n={n} k={k}",
                                 _ratio_error(nu, rule, vals, shape, (1.3, 0.5), (1.3, 2.2)),
                                 1e-6))
    return checks


def suite_kernel(quick=False):
    """Iterated-transform kernel: 2D quadrature vs j_{nu+1}(c ||y-z||)."""
    checks = []
    rng = np.random.default_rng(20240817)
    pts = []
    while len(pts) < (4 if quick else 10):
        p = rng.uniform(-1, 1, size=4)
        if p[0] ** 2 + p[1] ** 2 < 1 and p[2] ** 2 + p[3] ** 2 < 1:
            pts.append(p)
    for nu in ([0.0, 1.0] if quick else [0.0, 1.0, 2.5]):
        rule = disk_rule(150, 256, nu)
        ones = np.ones_like(rule.xs)
        for c in (1.0, 3.0):
            worst = 0.0
            for p in pts:
                y, z = p[:2], p[2:]
                q = ops.apply_weighted_fourier(nu, c, ones, y - z, rule)
                worst = max(worst, abs(q - ops.kernel_K(nu, c, y, z)))
            checks.append(_check(f"kernel nu={nu} c={c}", worst, 1e-8))
    return checks


def _commute_family(N):
    """Smooth radial test functions t^(N+1/2) (1-t^2) q(t^2) whose boundary
    terms vanish on both ends of the integration-by-parts identity."""
    return [
        lambda t, N=N: t ** (N + 0.5) * (1 - t * t),
        lambda t, N=N: t ** (N + 0.5) * (1 - t * t) * (1 + 0.5 * t * t),
        lambda t, N=N: t ** (N + 0.5) * (1 - t * t) * (1 - t * t + t ** 4),
    ]


def _L_near_boundary(nu, c, N, f, t):
    """apply_L with the stencil shrunk to fit inside (0, 1).

    Quadrature nodes approach both endpoints closer than the default step;
    t/16 keeps the Richardson stencil in-domain and its truncation error on
    the t^(N+1/2)-type radial family below the commutator tolerance.
    """
    return ops.apply_L(nu, c, N, f, t, h=np.minimum(1e-4, np.minimum(t / 16, (1 - t) / 16)))


def suite_commute(quick=False):
    """Commutation of the Hankel operator with the differential operator."""
    checks = []
    grid = [(0.0, 1.0, 0), (1.0, 1.0, 1), (2.5, 0.5, 3)] if quick else PARAM_GRID
    xs = np.linspace(0.1, 0.9, 9)
    for (nu, c, N) in grid:
        rule = radial_rule(240, nu)
        for jf, f in enumerate(_commute_family(N)):
            h_of_lf = ops.apply_finite_hankel(
                nu, c, N, lambda t: _L_near_boundary(nu, c, N, f, t), xs, rule)
            l_of_hf = ops.apply_L(
                nu, c, N, lambda t: ops.apply_finite_hankel(nu, c, N, f, t, rule), xs)
            scale = np.max(np.abs(h_of_lf))
            checks.append(_check(
                f"commute nu={nu} c={c} N={N} f{jf}",
                np.max(np.abs(h_of_lf - l_of_hf)) / scale, 1e-5))
    return checks


def suite_nystrom(quick=False):
    """Cross-method agreement: spectral sqrt(c) mu vs the Nystrom oracle,
    relative to the smaller of the two magnitudes."""
    checks = []
    grid = [(0.0, 1.0, 0), (1.0, 0.5, 3)] if quick else PARAM_GRID
    for (nu, c, N) in grid:
        p = sl.SlepianParams(nu=nu, c=c, N=N)
        modes = sl.solve_modes(p, 5)
        oracle = ops.nystrom_hankel_eigs(nu, c, N, 300, 5)
        worst = 0.0
        for m, q in zip(modes, oracle):
            spectral = math.sqrt(c) * m.mu
            worst = max(worst, abs(spectral - q.value) / min(abs(spectral), abs(q.value)))
        detail = ""
        if (nu, c, N) == (0.0, 1.0, 0):
            detail = f"top sqrt(c)*mu = {oracle[0].value:.17g}"
        checks.append(_check(f"nystrom nu={nu} c={c} N={N}", worst, 1e-7, detail))
    return checks


def suite_orthogonality(quick=False):
    """Gram matrices: radial phi family and full 2D psi family."""
    checks = []
    grid = [(0.0, 1.0, 0)] if quick else [(0.0, 1.0, 0), (1.0, 2.0, 1), (2.5, 0.5, 2),
                                          (1.0, 5.0, 0)]
    nmax = 6 if quick else 11
    for (nu, c, N) in grid:
        p = sl.SlepianParams(nu=nu, c=c, N=N)
        modes = sl.solve_modes(p, nmax)
        rule = radial_rule(320, nu)
        vals = np.array([sl.eval_phi(m, p, rule.nodes) for m in modes])
        gram = (vals * rule.weights) @ vals.T
        checks.append(_check(f"radial gram nu={nu} c={c} N={N}",
                             np.max(np.abs(gram - np.eye(nmax))), 1e-9))
    # 2D double orthogonality across angular orders N = 0..2, per_N modes
    # each; the two-mode gram keeps its name from before the full grid grew
    grams = [(1.0, 1.5, 2)]
    if not quick:
        grams += [(0.0, 1.0, 3), (1.0, 2.0, 3), (1.0, 1.5, 3)]
    for (nu, c, per_N) in grams:
        drule = disk_rule(120, 128, nu)
        fam = []
        for N in (0, 1, 2):
            p = sl.SlepianParams(nu=nu, c=c, N=N)
            for m in sl.solve_modes(p, per_N):
                fam.append(sl.eval_psi(m, p, drule.rs, drule.angles))
        fam = np.array(fam)
        gram = (fam * drule.weights) @ fam.conj().T
        name = f"disk gram (N=0..2, n=0..{per_N - 1})"
        if per_N == 3:
            name += f" nu={nu} c={c}"
        checks.append(_check(name, np.max(np.abs(gram - np.eye(len(fam)))), 1e-8))
    return checks


SUITES = {
    "lemma1": suite_lemma1,
    "theorem41": suite_theorem41,
    "theorem42": suite_theorem42,
    "kernel": suite_kernel,
    "commute": suite_commute,
    "nystrom": suite_nystrom,
    "orthogonality": suite_orthogonality,
}


def run_suite(name, quick=False):
    """Run one named suite (or 'all'); returns the list of Check records."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(quick=quick))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(list(SUITES) + ['all'])}")
    return SUITES[name](quick=quick)
