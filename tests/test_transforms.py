import cmath
import itertools
import math

import numpy as np
import pytest

from diskslepian import transforms as tr
from diskslepian.orthopoly import disk_poly, gegenbauer2d, gegenbauer_c, jacobi_sequence
from diskslepian import operators as ops
from diskslepian.quadrature import disk_rule, gauss_jacobi, radial_rule
from diskslepian.specfun import bessel_j, gamma_fn, j_script, j_small
from diskslepian.verification import quadrature_constant

import oracles

CONSTANT_NUS = (-0.9, 0.0, 1.0, 2.5)


def _shipped_constant(closed, shape, nu, a, b):
    """Constant of a shipped closed form, read off its value at one point
    (not the oracle's reference point)."""
    rho, angle = 1.9, 0.4
    return closed(nu, a, b, rho, angle).value / shape(nu, a, b, rho, angle)


class TestLemma:
    def test_lowest_case_shape(self):
        # n=0, beta=0: scriptJ_{alpha+1}(x)/x
        for a in (0.0, 1.5):
            for x in (0.7, 4.2):
                assert tr.lemma1_rhs(a, 0.0, 0, x) == pytest.approx(
                    j_script(a + 1, x) / x, rel=1e-14)

    def test_classical_bessel_integral(self):
        # integral_0^1 t^(a+1) J_a(xt) dt = J_{a+1}(x)/x: the n=0, beta=0 row
        a, x = 1.0, 2.5
        rule = radial_rule(160, 0.0)
        quad = rule.integrate(rule.nodes.astype(np.longdouble) ** (a + 1)
                              * np.array([bessel_j(a, x * t) for t in rule.nodes]))
        assert quad == pytest.approx(bessel_j(a + 1, x) / x, rel=1e-12)
        # and lemma1_rhs at n=0, beta=0 reduces to the same after the
        # sqrt(xt) bookkeeping of the script-J kernel
        rhs = tr.lemma1_rhs(a, 0.0, 0, x)
        assert rhs == pytest.approx(math.sqrt(x) * bessel_j(a + 1, x) / x, rel=1e-13)

    def test_identity_against_quadrature(self):
        a, b, n, x = 1.0, 0.5, 2, 3.7
        rule = radial_rule(220, b)
        f = lambda t: t ** (a + 0.5) * jacobi_sequence(n, a, b, 1 - 2 * t * t)[n]
        lhs = ops.apply_finite_hankel(b, 1.0, a, f, x, rule)
        assert lhs == pytest.approx(tr.lemma1_rhs(a, b, n, x), rel=1e-9)

    def test_evanescent_corner_against_mp_oracle(self):
        # high order at small argument: the identity value is ~1e-24; only an
        # extended-precision quadrature can resolve it
        a, b, n, x = 2.5, 2.5, 6, 0.5
        rhs = tr.lemma1_rhs(a, b, n, x)
        lhs = float(oracles.hankel_jacobi_lhs_mp(a, b, n, x))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    @pytest.mark.parametrize("a,b,n,x", [
        (0.0, 0.0, 3, 0.5), (0.0, 0.5, 6, 2.0), (0.0, 2.5, 6, 1.0), (0.5, 0.5, 6, 0.5),
        (0.5, 2.5, 5, 1.0), (1.0, 0.5, 4, 0.5), (1.0, 1.0, 6, 1.0), (2.5, 0.0, 4, 0.5),
        (2.5, 0.5, 5, 1.0), (2.5, 1.0, 6, 2.0), (1.0, 0.0, 2, 5.0)])
    def test_series_oracle_matches_quadrature_oracle(self, a, b, n, x):
        # the finite-sum oracle of criterion 6 against the mpmath quadrature
        # of the same integrand; all but the last corner are sub-1e-7 ones
        series = oracles.hankel_jacobi_lhs_series_mp(a, b, n, x)
        quad = oracles.hankel_jacobi_lhs_mp(a, b, n, x)
        assert abs(series - quad) <= 1e-14 * abs(quad)

    @pytest.mark.parametrize("a,b,n,x,value", [
        (0.0, 0.0, 0, 5e-324, 1.1113793747425387e-162),
        (0.0, 0.0, 0, 1e-300, 5e-151),
        (0.0, 2.5, 0, 1e-200, 1.4285714285714286e-101),
        (0.5, 1.0, 0, 1e-300, 1.0638460810704872e-301)])
    def test_tiny_argument_against_mpmath(self, a, b, n, x, value):
        # script-J(x) and x^(beta+1) underflow here, or x/2 rounds to 0,
        # while the value itself is a normal float
        ref = oracles.lemma1_rhs_mp(a, b, n, x)
        assert abs(float(ref) - value) <= 1e-16 * value
        assert abs(tr.lemma1_rhs(a, b, n, x) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("a,b,n,x", [(60.0, 0.0, 69, 5.0), (60.0, 0.0, 69, 40.0),
                                         (60.0, 0.0, 100, 60.0)])
    def test_high_bessel_order_against_mpmath(self, a, b, n, x):
        # Bessel orders 199 and 261, where Gamma(a+1) overflows and the
        # power-and-Gamma factor is formed in log space
        ref = oracles.lemma1_rhs_mp(a, b, n, x)
        assert abs(tr.lemma1_rhs(a, b, n, x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("a,b", itertools.product((0.0, 0.5, 1.0, 2.5), repeat=2))
    def test_parameter_grid_against_mpmath(self, a, b):
        # the lemma1 suite's (alpha, beta), n <= 6, across both Bessel
        # regimes; the worst is 1.06e-13, at (1, 1, 6, 20)
        worst = 0.0
        for n in range(7):
            for x in (1e-6, 0.01, 0.3, 1.3, 5.0, 11.9, 12.5, 20.0, 30.0, 45.0, 60.0):
                ref = oracles.lemma1_rhs_mp(a, b, n, x)
                worst = max(worst, float(abs(tr.lemma1_rhs(a, b, n, x) - ref) / abs(ref)))
        assert worst <= 2e-13


class TestDiskTransform:
    def test_constant_anchor(self):
        # C_{0,0} = Gamma(nu+2) is pinned by the iterated kernel; the whole
        # family C_{n,m} = i^(n+m) Gamma(nu+2) is checked against quadrature
        for nu in CONSTANT_NUS:
            c00 = quadrature_constant("disk", nu, 0, 0)
            assert abs(c00 - gamma_fn(nu + 2)) <= 1e-9 * gamma_fn(nu + 2)
            for n in range(6):
                for m in range(6 - n):
                    c = _shipped_constant(tr.disk_transform_closed, tr._disk_shape,
                                          nu, n, m)
                    assert abs(c - quadrature_constant("disk", nu, n, m)) <= 1e-9 * abs(c)

    def test_periodicity(self):
        r1 = tr.disk_transform_closed(1.0, 2, 1, 1.3, 0.4).value
        r2 = tr.disk_transform_closed(1.0, 2, 1, 1.3, 0.4 + 2 * math.pi).value
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_index_exchange_symmetry(self):
        # D_{m,n} = conj(D_{n,m}), so the transforms exchange under
        # conjugation with the sign of reflecting y -> -y: value(m,n) =
        # (-1)^(n-m) conj(value(n,m)) at the same (rho, vartheta)
        for (n, m) in [(2, 1), (0, 3), (4, 1)]:
            v1 = tr.disk_transform_closed(1.0, n, m, 1.3, 0.7).value
            v2 = tr.disk_transform_closed(1.0, m, n, 1.3, 0.7).value
            assert v2 == pytest.approx((-1.0) ** (n - m) * v1.conjugate(), rel=1e-12)

    def test_full_identity_with_closed_form_constant(self):
        nu = 2.5
        rule = disk_rule(150, 256, nu)
        for (n, m) in [(2, 1), (1, 2)]:
            vals = disk_poly(n, m, nu, rule.rs, rule.angles)
            errs, scale = [], 0.0
            for rho in (0.6, 1.45, 2.4):
                for vth in (0.3, 1.6, 4.0):
                    y = (rho * math.cos(vth), rho * math.sin(vth))
                    cf = tr.disk_transform_closed(nu, n, m, rho, vth).value
                    errs.append(abs(ops.apply_weighted_fourier(nu, 1.0, vals, y, rule) - cf))
                    scale = max(scale, abs(cf))
            assert max(errs) <= 1e-7 * scale

    def test_ratio_log_recovers_the_printed_form(self):
        nu, n, m = 2.5, 1, 0
        res = tr.disk_transform_closed(nu, n, m, 1.3, 0.7)
        printed = tr._paper_disk_constant(nu, n, m) * tr._disk_shape(nu, n, m, 1.3, 0.7)
        assert res.value / res.discrepancy_log == pytest.approx(printed, rel=1e-12)
        # n=m=0: derived/paper = Gamma(nu+1)^2
        r00 = tr.disk_transform_closed(nu, 0, 0, 1.3, 0.7).discrepancy_log
        assert r00 == pytest.approx(gamma_fn(nu + 1) ** 2, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tr.disk_transform_closed(1.0, 1, 1, 0.0, 0.0)
        # the printed constants are no longer a mode of the closed forms
        with pytest.raises(TypeError):
            tr.disk_transform_closed(1.0, 1, 1, 1.0, 0.0, constant_source="paper")
        with pytest.raises(TypeError):
            tr.gegenbauer2d_transform_closed(1.0, 1, 1, 1.0, 0.0, constant_source="paper")


class TestGegenbauer2DTransform:
    def test_constant_reduces_to_kernel_form(self):
        # n=k=0: transform of 1 must be j_{nu+1}(rho), matching the derived Z
        for nu in (0.0, 1.0):
            rho = 1.7
            val = tr.gegenbauer2d_transform_closed(nu, 0, 0, rho, 0.9).value
            assert val == pytest.approx(j_small(nu + 1, rho), rel=1e-9)

    @pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (3, 3), (4, 2)])
    def test_two_point_ratio_rho(self, n, k):
        nu = 1.0
        rule = disk_rule(150, 256, nu)
        vals = gegenbauer2d(n, k, nu + 0.5, rule.xs, rule.ys)
        phi = 1.1
        f = lambda rho: ops.apply_weighted_fourier(
            nu, 1.0, vals, (rho * math.cos(phi), rho * math.sin(phi)), rule)
        sh = lambda rho: tr._gegen2d_shape(nu, n, k, rho, phi)
        lhs = f(0.9) / f(1.7)
        assert abs(lhs - sh(0.9) / sh(1.7)) <= 1e-6 * abs(lhs)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2)])
    def test_two_point_ratio_phi(self, n, k):
        nu = 2.5
        rule = disk_rule(150, 256, nu)
        vals = gegenbauer2d(n, k, nu + 0.5, rule.xs, rule.ys)
        rho = 1.3
        f = lambda ph: ops.apply_weighted_fourier(
            nu, 1.0, vals, (rho * math.cos(ph), rho * math.sin(ph)), rule)
        sh = lambda ph: tr._gegen2d_shape(nu, n, k, rho, ph)
        lhs = f(0.5) / f(2.2)
        assert abs(lhs - sh(0.5) / sh(2.2)) <= 1e-6 * abs(lhs)

    def test_derived_matches_analytic_constant(self):
        # Z = i^n 2^(nu+1) Gamma(nu+2) (2nu+1)_k / k!, established through the
        # Poisson/finite-integral chain, against the quadrature oracle
        for nu in CONSTANT_NUS:
            for n in range(5):
                for k in range(n + 1):
                    z = _shipped_constant(tr.gegenbauer2d_transform_closed,
                                          tr._gegen2d_shape, nu, n, k)
                    assert abs(z - quadrature_constant("gegen2d", nu, n, k)) <= 1e-9 * abs(z)

    def test_paper_constant_keeps_pochhammer_sign(self):
        # the printed constant carries (2nu+1)_n, negative for n = 1 when
        # nu < -1/2; at n=1, k=0 printed/shipped = i pi (2nu+1) / (2 (nu+1))
        nu = -0.7
        res = tr.gegenbauer2d_transform_closed(nu, 1, 0, 1.3, 0.8)
        expect = 1j * math.pi * (2 * nu + 1) / (2 * (nu + 1))
        assert 1 / res.discrepancy_log == pytest.approx(expect, rel=1e-12)
        printed = tr._paper_gegen2d_constant(nu, 1, 0)
        assert printed / tr._gegen2d_constant(nu, 1, 0) == pytest.approx(expect, rel=1e-12)


SHAPE_NUS = (-0.9, -0.3, 0.0, 0.5, 1.7, 5.0, 12.0)
SHAPE_RHOS = (1e-6, 0.01, 0.3, 1.3, 5.0, 11.9, 12.5, 30.0, 45.0, 59.0)


class TestShapes:
    @pytest.mark.parametrize("nu", SHAPE_NUS)
    def test_shapes_against_mpmath(self, nu):
        # (2/rho)^(nu+1) J_{nu+n+m+1}(rho) e^{i(n-m) vartheta} and
        # rho^-(nu+1) J_{nu+n+1}(rho) sin(phi)^k C_{n-k}^{nu+k+1}(cos phi),
        # n, m <= 5, across both Bessel regimes.  phi = 0.3 keeps the
        # Gegenbauer factor clear of its zeros and cancellation
        vartheta, phi = 0.7, 0.3
        mnu, mphi = oracles.mp.mpf(nu), oracles.mp.mpf(phi)
        worst = 0.0
        for rho in SHAPE_RHOS:
            mrho = oracles.mp.mpf(rho)
            bessel = {a: oracles.bessel_j_mp(mnu + a + 1, mrho) for a in range(11)}
            for n, m in itertools.product(range(6), repeat=2):
                ref = ((2 / mrho) ** (mnu + 1) * bessel[n + m]
                       * oracles.mp.expj((n - m) * oracles.mp.mpf(vartheta)))
                got = tr._disk_shape(nu, n, m, rho, vartheta)
                worst = max(worst, float(abs(got - ref) / abs(ref)))
                if m <= n:
                    ref = (mrho ** -(mnu + 1) * bessel[n] * oracles.mp.sin(mphi) ** m
                           * oracles.mp.gegenbauer(n - m, mnu + m + 1, oracles.mp.cos(mphi)))
                    got = tr._gegen2d_shape(nu, n, m, rho, phi)
                    worst = max(worst, float(abs(got - ref) / abs(ref)))
        assert worst <= 2e-13

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.7])
    @pytest.mark.parametrize("rho", [1e-210, 1e-310, 5e-324])
    def test_constant_image_at_tiny_rho_is_one(self, nu, rho):
        # the n = 0 image of the constant is j_{nu+1}(rho) -> 1, where the
        # power (2/rho)^(nu+1) alone overflows and J_{nu+1}(rho) underflows
        for value in (tr.disk_transform_closed(nu, 0, 0, rho, 0.4).value,
                      tr.gegenbauer2d_transform_closed(nu, 0, 0, rho, 0.4).value):
            assert abs(value - 1.0) <= 1e-15


class TestWatsonIntegrals:
    def test_gegenbauer_poisson_integral(self):
        # integral_0^pi e^{iz cos t} C_n^lam(cos t) sin^(2 lam) t dt is
        # proportional to i^n J_{lam+n}(z)/z^lam; verified constant-free by a
        # two-point ratio
        gl = gauss_jacobi(220, 0.0, 0.0)
        t = 0.5 * math.pi * (gl.nodes + 1)
        w = 0.5 * math.pi * gl.weights
        for (n, lam) in [(2, 1.0), (3, 1.5), (1, 2.5)]:
            def quad(z):
                vals = (np.exp(1j * z * np.cos(t)) * gegenbauer_c(n, lam, np.cos(t))
                        * np.sin(t) ** (2 * lam))
                return complex(np.sum(w * vals))
            z1, z2 = 1.3, 2.6
            lhs = quad(z1) / quad(z2)
            rhs = ((bessel_j(lam + n, z1) / z1 ** lam)
                   / (bessel_j(lam + n, z2) / z2 ** lam))
            assert abs(lhs - rhs) <= 1e-7 * abs(lhs)

    def test_gegenbauer_finite_integral(self):
        # integral_0^pi [J_{mu-1/2}(z sin t sin v)/(z sin t sin v)^(mu-1/2)]
        #   e^{iz cos t cos v} C_j^mu(cos t) sin^(2 mu) t dt
        # = sqrt(2 pi) i^j J_{mu+j}(z)/z^mu C_j^mu(cos v)
        gl = gauss_jacobi(260, 0.0, 0.0)
        t = 0.5 * math.pi * (gl.nodes + 1)
        w = 0.5 * math.pi * gl.weights
        mu, j, v = 2.0, 2, 0.8
        def quad(z):
            arg = z * np.sin(t) * math.sin(v)
            kern = np.array([bessel_j(mu - 0.5, a) / a ** (mu - 0.5) for a in arg])
            vals = (kern * np.exp(1j * z * np.cos(t) * math.cos(v))
                    * gegenbauer_c(j, mu, np.cos(t)) * np.sin(t) ** (2 * mu))
            return complex(np.sum(w * vals))
        z1, z2 = 1.1, 2.3
        lhs = quad(z1) / quad(z2)
        rhs = (bessel_j(mu + j, z1) / z1 ** mu) / (bessel_j(mu + j, z2) / z2 ** mu)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)
        # and the full closed form including constants at one point
        full = math.sqrt(2 * math.pi) * (1j ** j) * bessel_j(mu + j, z1) / z1 ** mu \
            * gegenbauer_c(j, mu, math.cos(v))
        assert quad(z1) == pytest.approx(full, rel=1e-9)
