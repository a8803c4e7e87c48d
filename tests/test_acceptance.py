"""Acceptance criteria, one test per criterion, at the pinned tolerances.

Each test prints a single PASS/FAIL line with the measured worst error
(visible with ``pytest -s``); the assertion enforces the same tolerance.
"""

import math

import numpy as np
import pytest

from diskslepian import operators as ops
from diskslepian import slepian as sl
from diskslepian import transforms as tr
from diskslepian.orthopoly import disk_poly, gegenbauer2d, jacobi_sequence
from diskslepian.quadrature import disk_rule, radial_rule
from diskslepian.slepian import SlepianParams
from diskslepian.verification import fourier_on_rule, quadrature_constant

import oracles

GRID_NU = (0.0, 1.0, 2.5)
GRID_C = (0.5, 1.0, 5.0)
GRID_N = (0, 1, 3)


def _report(num, label, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status} (worst {worst:.3e}, tol {tol:.1e})")
    assert worst <= tol


def test_criterion_01_zero_bandwidth_spectrum():
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.5):
        for N in range(5):
            p = SlepianParams(nu=nu, c=0.0, N=N)
            modes = sl.solve_modes(p, 9)
            for m in modes:
                ref = sl.chi0(N, m.n, nu)
                worst = max(worst, abs(m.chi - ref) / max(1.0, abs(ref)))
                e = np.zeros(m.truncation)
                e[m.n] = 1.0
                worst = max(worst, np.max(np.abs(m.coeffs - e)))
    _report(1, "c=0 closed-form spectrum", worst, 1e-12)


def test_criterion_02_cross_method_spectra():
    worst = 0.0
    for nu in GRID_NU:
        for c in GRID_C:
            for N in GRID_N:
                modes = sl.solve_modes(SlepianParams(nu=nu, c=c, N=N), 5)
                oracle = ops.nystrom_hankel_eigs(nu, c, N, 300, 5)
                for m, q in zip(modes, oracle):
                    worst = max(worst, abs(math.sqrt(c) * m.mu - q.value)
                                / abs(math.sqrt(c) * m.mu))
    _report(2, "spectral vs Nystrom, top 5", worst, 1e-7)


def test_criterion_03_integral_eigenrelation():
    # Modes with sqrt(c)|mu| below ~1e-10 are excluded: the 64-bit rounding
    # of the quadrature rule's weights alone injects ~1e-16 of the O(0.1)
    # integrand scale into the transform values, so a 1e-6 relative check is
    # only meaningful above that floor.  Criterion 2 already pins the deeper
    # eigenvalues to 1e-7 through the extended-precision Nystrom oracle.
    worst = 0.0
    checked = skipped = 0
    xs = np.linspace(0.04, 0.99, 20)
    for nu in GRID_NU:
        for c in GRID_C:  # all c <= 5
            for N in GRID_N:
                p = SlepianParams(nu=nu, c=c, N=N)
                rule = radial_rule(260, nu)
                for m in sl.solve_modes(p, 5):
                    if math.sqrt(c) * abs(m.mu) < 1e-10:
                        skipped += 1
                        continue
                    checked += 1
                    target = math.sqrt(c) * m.mu * sl.eval_phi(m, p, xs)
                    hv = ops.apply_finite_hankel(
                        nu, c, N, lambda t: sl.eval_phi(m, p, t), xs, rule)
                    worst = max(worst, np.max(np.abs(hv - target))
                                / np.max(np.abs(target)))
    print(f"  {checked} modes checked, {skipped} below the evaluation floor")
    _report(3, "H phi = sqrt(c) mu phi at 20 points", worst, 1e-6)


@pytest.mark.slow
def test_criterion_04_full_2d_eigenrelation():
    rng = np.random.default_rng(42)
    pts = []
    while len(pts) < 10:
        p = rng.uniform(-1, 1, size=2)
        if p[0] ** 2 + p[1] ** 2 < 1:
            pts.append(p)
    worst = 0.0
    for nu in (0.0, 1.0):
        rule = disk_rule(90, 96, nu)
        for c in (0.5, 2.0):
            for N in (0, 1, 2):
                p = SlepianParams(nu=nu, c=c, N=N)
                for m in sl.solve_modes(p, 3):
                    psi_vals = sl.eval_psi(m, p, rule.rs, rule.angles)
                    vals, refs = [], []
                    for (yx, yy) in pts:
                        phase = np.exp(1j * c * (rule.xs * yx + rule.ys * yy))
                        vals.append(complex(np.sum(rule.weights * phase * psi_vals)))
                        refs.append(m.lam * sl.eval_psi(
                            m, p, math.hypot(yx, yy), math.atan2(yy, yx)))
                    scale = max(abs(r) for r in refs)
                    worst = max(worst, max(abs(v - r) for v, r in zip(vals, refs)) / scale)
    _report(4, "F psi = lambda psi at 10 disk points", worst, 1e-5)


def test_criterion_05_commutation():
    worst = 0.0
    xs = np.linspace(0.1, 0.9, 9)
    fams = lambda N: [
        lambda t, N=N: t ** (N + 0.5) * (1 - t * t),
        lambda t, N=N: t ** (N + 0.5) * (1 - t * t) * (1 + 0.5 * t * t),
    ]
    for nu in GRID_NU:
        for c in GRID_C:
            for N in GRID_N:
                rule = radial_rule(240, nu)
                for f in fams(N):
                    L_in = lambda t: ops.apply_L(
                        nu, c, N, f, t, h=np.minimum(1e-4, np.minimum(t / 16, (1 - t) / 16)))
                    h_lf = ops.apply_finite_hankel(nu, c, N, L_in, xs, rule)
                    l_hf = ops.apply_L(
                        nu, c, N, lambda t: ops.apply_finite_hankel(nu, c, N, f, t, rule), xs)
                    worst = max(worst, np.max(np.abs(h_lf - l_hf)) / np.max(np.abs(h_lf)))
    _report(5, "commutator residual", worst, 1e-5)


def test_criterion_06_lemma_identity_full_grid():
    worst = 0.0
    xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    for a in (0.0, 0.5, 1.0, 2.5):
        for b in (0.0, 0.5, 1.0, 2.5):
            rule = radial_rule(240, b)
            for n in range(7):
                rhs = np.array([tr.lemma1_rhs(a, b, n, x) for x in xs])
                lhs = np.empty_like(rhs)
                quad = np.abs(rhs) >= 1e-7
                f = lambda t: t ** (a + 0.5) * jacobi_sequence(n, a, b, 1 - 2 * t * t)[n]
                lhs[quad] = ops.apply_finite_hankel(b, 1.0, a, f, xs[quad], rule)
                # below the double-precision cancellation floor:
                # arbitrary-precision series oracle
                lhs[~quad] = [float(oracles.hankel_jacobi_lhs_series_mp(a, b, n, x))
                              for x in xs[~quad]]
                worst = max(worst, np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    _report(6, "Hankel-Jacobi closed form over full grid", worst, 1e-9)


def test_criterion_07_kernel_identity():
    rng = np.random.default_rng(20240817)
    pairs = []
    while len(pairs) < 10:
        p = rng.uniform(-1, 1, size=4)
        if p[0] ** 2 + p[1] ** 2 < 1 and p[2] ** 2 + p[3] ** 2 < 1:
            pairs.append((p[:2], p[2:]))
    worst = 0.0
    for nu in GRID_NU:
        rule = disk_rule(150, 256, nu)
        ones = np.ones_like(rule.xs)
        for c in (1.0, 3.0):
            for (y, z) in pairs:
                quad = fourier_on_rule(rule, ones, (c * (y[0] - z[0]), c * (y[1] - z[1])))
                worst = max(worst, abs(quad - ops.kernel_K(nu, c, y, z)))
    _report(7, "iterated-transform kernel", worst, 1e-8)


def test_criterion_08_disk_polynomial_transform():
    worst_ratio = 0.0
    worst_full = 0.0
    worst_const = 0.0
    for nu in (-0.9,) + GRID_NU:
        for n in range(6):
            for m in range(6 - n):
                cf = tr.disk_transform_closed(nu, n, m, 1.9, 0.4)
                const = cf.value / tr._disk_shape(nu, n, m, 1.9, 0.4)
                worst_const = max(worst_const, abs(quadrature_constant("disk", nu, n, m) - const)
                                  / abs(const))
    for nu in GRID_NU:
        rule = disk_rule(150, 256, nu)
        for n in range(6):
            for m in range(6 - n):
                vals = disk_poly(n, m, nu, rule.rs, rule.angles)
                vth = 0.9
                q1 = fourier_on_rule(rule, vals, (0.8 * math.cos(vth), 0.8 * math.sin(vth)))
                q2 = fourier_on_rule(rule, vals, (1.6 * math.cos(vth), 1.6 * math.sin(vth)))
                s1 = tr._disk_shape(nu, n, m, 0.8, vth)
                s2 = tr._disk_shape(nu, n, m, 1.6, vth)
                worst_ratio = max(worst_ratio, abs(q1 / q2 - s1 / s2) / abs(q1 / q2))
        for (n, m) in [(1, 0), (2, 1), (1, 2), (0, 3)]:
            vals = disk_poly(n, m, nu, rule.rs, rule.angles)
            errs, scale = [], 0.0
            for rho in (0.6, 1.0, 1.45, 1.9, 2.4):
                for vth in (0.3, 0.9, 1.6, 2.5, 4.0):
                    y = (rho * math.cos(vth), rho * math.sin(vth))
                    cf = tr.disk_transform_closed(nu, n, m, rho, vth)
                    assert cf.discrepancy_log is not None  # ratio is logged
                    errs.append(abs(fourier_on_rule(rule, vals, y) - cf.value))
                    scale = max(scale, abs(cf.value))
            worst_full = max(worst_full, max(errs) / scale)
    print(f"  ratio worst {worst_ratio:.3e}, full-grid worst {worst_full:.3e}, "
          f"constant worst {worst_const:.3e}")
    _report(8, "disk polynomial transform",
            max(worst_ratio / 1e-6, worst_full / 1e-7, worst_const / 1e-9) * 1e-9, 1e-9)


def test_criterion_09_gegenbauer2d_transform():
    worst = 0.0
    for nu in GRID_NU:
        rule = disk_rule(150, 256, nu)
        for n in range(5):
            for k in range(n + 1):
                vals = gegenbauer2d(n, k, nu + 0.5, rule.xs, rule.ys)
                phi = 1.1
                f1 = fourier_on_rule(rule, vals, (0.9 * math.cos(phi), 0.9 * math.sin(phi)))
                f2 = fourier_on_rule(rule, vals, (1.7 * math.cos(phi), 1.7 * math.sin(phi)))
                s1 = tr._gegen2d_shape(nu, n, k, 0.9, phi)
                s2 = tr._gegen2d_shape(nu, n, k, 1.7, phi)
                worst = max(worst, abs(f1 / f2 - s1 / s2) / abs(f1 / f2))
                g1 = fourier_on_rule(rule, vals, (1.3 * math.cos(0.5), 1.3 * math.sin(0.5)))
                g2 = fourier_on_rule(rule, vals, (1.3 * math.cos(2.2), 1.3 * math.sin(2.2)))
                t1 = tr._gegen2d_shape(nu, n, k, 1.3, 0.5)
                t2 = tr._gegen2d_shape(nu, n, k, 1.3, 2.2)
                worst = max(worst, abs(g1 / g2 - t1 / t2) / abs(g1 / g2))
    _report(9, "two-variable Gegenbauer ratio identities", worst, 1e-6)


def test_criterion_10_classical_reduction():
    worst_fd = 0.0
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=5)
    f = lambda t: np.sqrt(t) * np.polynomial.Polynomial(coeffs)(np.asarray(t, dtype=float))
    for c in (0.0, 1.0, 5.0):
        for N in (0, 1, 3):
            for x in (0.15, 0.4, 0.6, 0.85):
                a = ops.apply_L(0.0, c, N, f, x)
                b = ops.apply_L_classical(c, N, f, x)
                worst_fd = max(worst_fd, abs(a - b) / max(1.0, abs(b)))
    lam = sl.solve_modes(SlepianParams(nu=0.0, c=1e-3, N=0), 1)[0].lam
    worst = max(worst_fd / 1e-8, abs(lam - 1.0) / 1e-4) * 1e-8
    print(f"  operator agreement {worst_fd:.3e}, |lambda00(1e-3) - 1| = {abs(lam - 1):.3e}")
    _report(10, "weight-zero classical reduction", worst, 1e-8)


def test_criterion_11_orthonormality():
    worst_radial = 0.0
    for (nu, c, N) in [(0.0, 1.0, 0), (1.0, 2.0, 1), (2.5, 0.5, 2), (1.0, 5.0, 0)]:
        p = SlepianParams(nu=nu, c=c, N=N)
        modes = sl.solve_modes(p, 11)
        rule = radial_rule(320, nu)
        vals = np.array([sl.eval_phi(m, p, rule.nodes) for m in modes])
        gram = (vals * rule.weights) @ vals.T
        worst_radial = max(worst_radial, np.max(np.abs(gram - np.eye(11))))
    worst_disk = 0.0
    for (nu, c) in [(0.0, 1.0), (1.0, 2.0)]:
        rule = disk_rule(110, 128, nu)
        fam = []
        for N in (0, 1, 2):
            p = SlepianParams(nu=nu, c=c, N=N)
            fam.extend((m, p) for m in sl.solve_modes(p, 3))
        vals = np.array([sl.eval_psi(m, p, rule.rs, rule.angles) for (m, p) in fam])
        gram = (vals * rule.weights) @ vals.conj().T
        worst_disk = max(worst_disk, np.max(np.abs(gram - np.eye(len(fam)))))
    print(f"  radial gram worst {worst_radial:.3e}, disk gram worst {worst_disk:.3e}")
    _report(11, "orthonormality",
            max(worst_radial / 1e-9, worst_disk / 1e-8) * 1e-9, 1e-9)


def test_criterion_12_eigenvalue_ordering():
    # |lambda_{N,n}| is non-increasing in n and in N (1e-9 relative slack for
    # the large-c plateau of nearly equal |lambda|) and bounded by 1; worst
    # is the largest violation of any of the three claims
    worst = 0.0
    for nu in (0.0, 1.0, 2.5):
        for c in (0.5, 3.0, 10.0, 40.0, 80.0):
            mags = np.array([[abs(m.lam) for m in sl.solve_modes(SlepianParams(nu, c, N), 8)]
                             for N in range(6)])
            worst = max(worst, np.max(mags) - 1.0,
                        np.max(mags[:, 1:] - mags[:, :-1] * (1 + 1e-9)),
                        np.max(mags[1:, :] - mags[:-1, :] * (1 + 1e-9)))
    _report(12, "|lambda| monotone in n and N, <= 1", worst, 0.0)
