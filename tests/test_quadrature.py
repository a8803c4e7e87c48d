import math

import mpmath
import numpy as np
import pytest

from diskslepian.quadrature import disk_rule, gauss_jacobi, radial_rule
from diskslepian.specfun import gamma_fn

import oracles


def _beta_moment(k, nu):
    """integral_0^1 t^k (1-t^2)^nu dt, closed Beta form via lgamma."""
    return 0.5 * math.exp(math.lgamma((k + 1) / 2) + math.lgamma(nu + 1)
                          - math.lgamma((k + 1) / 2 + nu + 1))


class TestGaussLegendre:
    """The Jacobi rule at a = b = 0."""

    def test_one_point(self):
        r = gauss_jacobi(1, 0.0, 0.0)
        assert r.nodes == pytest.approx([0.0], abs=1e-15)
        assert r.weights == pytest.approx([2.0], rel=1e-15)
        # degree 2n-1 = 1 boundary
        assert r.integrate(lambda x: 3 * x + 1) == pytest.approx(2.0, rel=1e-15)

    def test_exactness(self):
        legendre = lambda n: gauss_jacobi(n, 0.0, 0.0)
        assert legendre(2).integrate(lambda x: x ** 2) == pytest.approx(2 / 3, abs=1e-13)
        assert legendre(5).integrate(lambda x: x ** 8) == pytest.approx(2 / 9, abs=1e-13)
        # degree 2n-1 boundary
        assert legendre(5).integrate(lambda x: x ** 9) == pytest.approx(0.0, abs=1e-14)


class TestGaussJacobi:
    def test_one_point_legendre(self):
        r = gauss_jacobi(1, 0.0, 0.0)
        assert r.nodes == pytest.approx([0.0], abs=1e-15)
        assert r.weights == pytest.approx([2.0], rel=1e-15)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 0.5), (2.5, -0.3), (-0.5, -0.5)])
    def test_total_mass_beta(self, a, b):
        r = gauss_jacobi(9, a, b)
        mass = 2.0 ** (a + b + 1) * gamma_fn(a + 1) * gamma_fn(b + 1) / gamma_fn(a + b + 2)
        assert np.sum(r.weights) == pytest.approx(mass, rel=1e-13)

    def test_against_adaptive_simpson(self):
        r = gauss_jacobi(4, 1.0, 0.5)
        val = r.integrate(lambda u: u ** 3)
        ref = oracles.adaptive_simpson(
            lambda u: u ** 3 * (1 - u) * (1 + u) ** 0.5, -1.0, 1.0, tol=1e-14)
        assert val == pytest.approx(ref, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_jacobi(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gauss_jacobi(4, -1.0, 0.0)


class TestRadialRule:
    """The rule integrates t^(2 beta + 1) p(t^2) (1-t^2)^nu exactly for
    deg p <= 2n-1; the reference for every moment is the Beta form."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    def test_mass(self, nu):
        # the integrand 1 is t^(2 beta + 1) at beta = -1/2
        r = radial_rule(40, nu, beta=-0.5)
        assert np.sum(r.weights) == pytest.approx(_beta_moment(0, nu), rel=1e-13)

    @pytest.mark.parametrize("n,nu", [(600, 0.7), (240, -0.9)])
    def test_large_rule_moments(self, n, nu):
        # the monic recurrence underflows like 4^-n on (-1,1) by n = 600; next
        # to the singular endpoint of nu < 0 the Christoffel sum moves on the
        # scale of 1 - t, so it must be carried to the Newton-refined node
        r = radial_rule(n, nu)
        assert np.all(np.isfinite(r.nodes)) and np.all(np.isfinite(r.weights))
        t = r.nodes.astype(np.longdouble)
        for j in range(120):
            ref = float(mpmath.beta(j + 1, nu + 1) / 2)
            assert abs(r.integrate(t ** (2 * j + 1)) - ref) <= 1e-13 * ref

    def test_trivial_moments(self):
        assert radial_rule(10, 0.0).integrate(lambda t: t) == pytest.approx(0.5, abs=1e-14)
        # t^2 is t^(2 beta + 1) at beta = 1/2
        assert radial_rule(10, 1.0, beta=0.5).integrate(lambda t: t ** 2) == pytest.approx(
            2 / 15, abs=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [20, 120, 300])
    def test_exactness_to_degree(self, nu, n):
        for beta in (-0.5, 0.0, 0.5, 2.5):
            r = radial_rule(n, nu, beta)
            for j in (0, 1, n, 2 * n - 1):
                k = 2 * beta + 1 + 2 * j
                val = r.integrate(r.nodes.astype(np.longdouble) ** k)
                ref = _beta_moment(k, nu)
                assert abs(val - ref) <= 1e-13 * ref * (1 + k)

    def test_golub_welsch_consistency(self):
        r = radial_rule(150, 1.3)
        assert np.all(np.diff(r.nodes) > 0)
        assert r.nodes[0] > 0 and r.nodes[-1] < 1
        assert np.all(r.weights > 0)
        assert r.integrate(r.nodes) == pytest.approx(_beta_moment(1, 1.3), rel=1e-12)

    def test_doubling_plateau(self):
        # analytic and in the exactness class, but no polynomial
        f = lambda t: t * np.exp(-3 * t * t) * np.sin(5 * t * t)
        a = radial_rule(200, 0.7).integrate(f)
        b = radial_rule(400, 0.7).integrate(f)
        assert abs(a - b) <= 1e-10


class TestDiskRule:
    def test_normalization(self):
        for nu in (0.0, 0.5, 2.5):
            d = disk_rule(50, 64, nu)
            assert complex(np.sum(d.weights)).real == pytest.approx(1.0, abs=1e-12)

    def test_odd_function_vanishes(self):
        d = disk_rule(50, 64, 1.0)
        assert abs(d.integrate(lambda x, y: x)) <= 1e-14

    def test_radial_polynomial(self):
        d = disk_rule(50, 64, 0.0)
        assert d.integrate(lambda x, y: x ** 2 + y ** 2).real == pytest.approx(0.5, abs=1e-13)

    def test_polar_form_matches(self):
        d = disk_rule(30, 32, 0.5)
        a = d.integrate(lambda x, y: x ** 2 * y ** 2)
        g = lambda r, t: (r ** 2 * np.cos(t) * np.sin(t)) ** 2
        b = complex(np.sum(d.weights * g(d.rs, d.angles)))
        assert a == pytest.approx(b, abs=1e-15)
