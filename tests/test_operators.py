import math

import numpy as np
import pytest

from diskslepian import operators as ops
from diskslepian import transforms as tr
from diskslepian.orthopoly import jacobi_sequence
from diskslepian.quadrature import disk_rule, radial_rule
from diskslepian.slepian import chi0
from diskslepian.specfun import bessel_j, j_small, j_script

import oracles
from oracles import TBasisIndex

J_1_2 = 0.5767248077568733872024482


class TestFiniteHankel:
    def test_classical_weightless_identity(self):
        # at nu=0 the operator kernel is exactly J_N(cxt) sqrt(cxt)
        rule = radial_rule(120, 0.0)
        c, N, x = 1.7, 2, 0.63
        f = lambda t: np.sqrt(t) * (1 + t ** 2)
        mine = ops.apply_finite_hankel(0.0, c, N, f, x, rule)
        t = rule.nodes
        classical = float(np.sum(
            rule.weights * np.array([bessel_j(N, c * x * ti) for ti in t])
            * np.sqrt(c * x * t) * f(t)))
        assert mine == pytest.approx(classical, rel=1e-13)

    def test_matches_lemma_closed_form(self):
        rule = radial_rule(200, 0.5)
        a, b, n, x = 1.0, 0.5, 2, 3.7
        f = lambda t: t ** (a + 0.5) * jacobi_sequence(n, a, b, 1 - 2 * t * t)[n]
        lhs = ops.apply_finite_hankel(b, 1.0, a, f, x, rule)
        assert lhs == pytest.approx(tr.lemma1_rhs(a, b, n, x), rel=1e-9)

    def test_rule_beta_must_match_hankel_order(self):
        # a half-integer order needs the rule of its integrand class:
        # beta = 0.5 reproduces the closed form, beta = 0 is refused
        a, b, n, xs = 0.5, 2.5, 4, np.array([2.0, 5.0])
        f = lambda t: t ** (a + 0.5) * jacobi_sequence(n, a, b, 1 - 2 * t * t)[n]
        lhs = ops.apply_finite_hankel(b, 1.0, a, f, xs, radial_rule(240, b, beta=a))
        rhs = np.array([tr.lemma1_rhs(a, b, n, x) for x in xs])
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-9
        for rule in (radial_rule(240, b), radial_rule(240, b, beta=1.5)):
            with pytest.raises(ValueError, match="beta"):
                ops.apply_finite_hankel(b, 1.0, a, f, xs, rule)
        # beta = N - j for an integer j >= 0 covers the same class
        g = lambda t: t ** 2 * (1 + t * t)
        ref = ops.apply_finite_hankel(b, 1.0, 1.5, g, xs, radial_rule(240, b, beta=1.5))
        assert ops.apply_finite_hankel(b, 1.0, 1.5, g, xs, radial_rule(240, b, beta=0.5)) == \
            pytest.approx(ref, rel=1e-12)

    def test_small_c_leading_order(self):
        # H f ~ (cx)^(N+1/2)/(2^N N!) * integral t^(N+1) R(t) (1-t^2)^nu dt
        nu, N, c, x = 0.5, 1, 1e-3, 0.8
        rule = radial_rule(100, nu)
        idx = TBasisIndex(N, 0, nu)
        f = lambda t: oracles.t_basis(idx, np.asarray(t, dtype=float))
        val = ops.apply_finite_hankel(nu, c, N, f, x, rule)
        lead = ((c * x) ** (N + 0.5) / (2 ** N * math.factorial(N))
                * rule.integrate(rule.nodes ** (N + 0.5) * f(rule.nodes)))
        assert val == pytest.approx(lead, rel=5e-7)  # next term is O((cx)^2)

    def test_requires_positive_x(self):
        rule = radial_rule(20, 0.0)
        with pytest.raises(ValueError):
            ops.apply_finite_hankel(0.0, 1.0, 0, lambda t: t, 0.0, rule)

    def test_array_x_matches_scalar_calls_bitwise(self):
        rule = radial_rule(120, 1.0)
        f = lambda t: t ** 1.5 * (1 - t * t) * (1 + 0.5 * t)
        for (c, N) in [(0.5, 0), (5.0, 1), (11.0, 3)]:
            xs = np.linspace(0.05, 1.0, 13)
            arr = ops.apply_finite_hankel(1.0, c, N, f, xs, rule)
            assert arr.dtype == float and arr.shape == xs.shape
            assert np.array_equal(
                arr, [ops.apply_finite_hankel(1.0, c, N, f, x, rule) for x in xs])
            grid = xs[:12].reshape(3, 4)
            assert np.array_equal(ops.apply_finite_hankel(1.0, c, N, f, grid, rule),
                                  arr[:12].reshape(3, 4))

    def test_refuses_beyond_series_cutoff(self):
        # the kernel argument c x t reaches c x at the outermost node
        rule = radial_rule(40, 0.0)
        f = lambda t: t
        assert np.isfinite(ops.apply_finite_hankel(0.0, 12.0, 0, f, 1.0, rule))
        for c, x in [(12.5, 1.0), (20.0, 0.9), (40.0, np.array([0.1, 0.8]))]:
            with pytest.raises(ValueError):
                ops.apply_finite_hankel(0.0, c, 0, f, x, rule)

    def test_self_adjointness_bilinear(self):
        nu, c, N = 1.0, 2.0, 1
        rule = radial_rule(150, nu)
        rng = np.random.default_rng(12)
        pf = np.polynomial.Polynomial(rng.normal(size=5))
        pg = np.polynomial.Polynomial(rng.normal(size=5))
        f = lambda t: np.sqrt(t) * pf(np.asarray(t, dtype=float))
        g = lambda t: np.sqrt(t) * pg(np.asarray(t, dtype=float))
        hf = ops.apply_finite_hankel(nu, c, N, f, rule.nodes, rule)
        hg = ops.apply_finite_hankel(nu, c, N, g, rule.nodes, rule)
        lhs = float(np.sum(rule.weights * hf * g(rule.nodes)))
        rhs = float(np.sum(rule.weights * f(rule.nodes) * hg))
        assert abs(lhs - rhs) <= 1e-10


class TestDifferentialOperator:
    def test_half_power_eigenfunction(self):
        # -L x^(1/2) = (nu + 3/4) x^(1/2)
        for nu in (0.0, 1.0, 2.5):
            for x in (0.2, 0.5, 0.8):
                val = ops.apply_L(nu, 0.0, 0, lambda t: np.sqrt(t), x)
                assert val == pytest.approx(-(nu + 0.75) * math.sqrt(x), abs=1e-7)

    def test_t_basis_eigenrelation_at_zero_bandwidth(self):
        for (N, n, nu) in [(0, 0, 0.0), (1, 2, 1.0), (2, 1, 2.5), (0, 0, 1.0)]:
            idx = TBasisIndex(N, n, nu)
            f = lambda t: oracles.t_basis(idx, np.asarray(t, dtype=float))
            for x in (0.3, 0.6):
                val = ops.apply_L(nu, 0.0, N, f, x)
                assert val == pytest.approx(-chi0(N, n, nu) * f(x), abs=1e-6 * (1 + chi0(N, n, nu)))

    def test_matches_classical_at_weight_zero(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=6)
        f = lambda t: np.sqrt(t) * np.polynomial.Polynomial(coeffs)(np.asarray(t, dtype=float))
        for c in (0.0, 1.3):
            for N in (0, 2):
                for x in (0.15, 0.45, 0.85):
                    a = ops.apply_L(0.0, c, N, f, x)
                    b = oracles.apply_L_classical(c, N, f, x)
                    assert a == pytest.approx(b, abs=1e-8 * max(1, abs(b)))

    def test_array_x_matches_scalar_calls_bitwise(self):
        nu, c, N = 1.0, 2.0, 1
        rule = radial_rule(80, nu)
        # sqrt, + and * round alike on scalars and arrays (pow need not)
        f = lambda t: np.sqrt(t) * t * (1 - t * t)
        hf = lambda t: ops.apply_finite_hankel(nu, c, N, f, t, rule)
        xs = np.linspace(0.1, 0.9, 9)
        for g in (f, hf):
            arr = ops.apply_L(nu, c, N, g, xs)
            assert np.array_equal(arr, [ops.apply_L(nu, c, N, g, x) for x in xs])

    def test_stencil_domain_error(self):
        with pytest.raises(ValueError):
            ops.apply_L(0.0, 1.0, 0, lambda t: t, 1e-5)
        with pytest.raises(ValueError):
            ops.apply_L(0.0, 1.0, 0, lambda t: t, np.array([0.5, 0.99999]))
        with pytest.raises(ValueError):
            oracles.apply_L_classical(1.0, 0, lambda t: t, 0.99999)


class TestCommutation:
    def test_residual_small(self):
        nu, c, N = 1.0, 1.0, 1
        rule = radial_rule(240, nu)
        f = lambda t: t ** (N + 0.5) * (1 - t * t) * (1 + 0.3 * t * t)
        xs = np.linspace(0.1, 0.9, 7)
        L_near = lambda t: ops.apply_L(nu, c, N, f, t,
                                       h=np.minimum(1e-4, np.minimum(t / 16, (1 - t) / 16)))
        h_lf = ops.apply_finite_hankel(nu, c, N, L_near, xs, rule)
        l_hf = ops.apply_L(nu, c, N, lambda t: ops.apply_finite_hankel(nu, c, N, f, t, rule), xs)
        assert np.max(np.abs(h_lf - l_hf)) <= 1e-5 * np.max(np.abs(h_lf))


class TestAngularReduction:
    def test_circle_integral_identity(self):
        # trapezoid quadrature of e^{i z cos(th - vth)} e^{i(m-n)th} equals
        # 2 pi i^(n-m) e^{i(m-n)vth} J_{n-m}(z)
        M = 512
        th = 2 * np.pi * np.arange(M) / M
        for (n, m, z, vth) in [(3, 1, 2.0, 0.7), (0, 4, 5.0, 1.9), (2, 2, 1.0, 0.0)]:
            quad = np.sum(np.exp(1j * z * np.cos(th - vth))
                          * np.exp(1j * (m - n) * th)) * (2 * np.pi / M)
            k = n - m
            jk = bessel_j(abs(k), z) * ((-1.0) ** k if k < 0 else 1.0)
            ref = 2 * np.pi * 1j ** ((n - m) % 4) * np.exp(1j * (m - n) * vth) * jk
            assert abs(quad - ref) <= 1e-10


class TestNystrom:
    def test_small_c_scaling(self):
        # kernel series leading order scriptJ_N(cxt) ~ (cxt)^(N+1/2): the top
        # eigenvalue vanishes like c^(N+1/2) as c -> 0 (consistent with the
        # 2D eigenvalue limit lambda_00 -> 1, since lambda ~ mu ~ c^N)
        for N in (0, 2):
            lo = ops.nystrom_hankel_eigs(0.5, 1e-3, N, 60, 1)[0].value
            hi = ops.nystrom_hankel_eigs(0.5, 2e-3, N, 60, 1)[0].value
            assert hi / lo == pytest.approx(2.0 ** (N + 0.5), rel=2e-5)

    def test_rule_size_doubling_stability(self):
        a = ops.nystrom_hankel_eigs(0.0, 1.0, 0, 200, 10)
        b = ops.nystrom_hankel_eigs(0.0, 1.0, 0, 400, 10)
        for pa, pb in zip(a, b):
            assert abs(pa.value - pb.value) <= 1e-10

    def test_rule_size_precondition(self):
        with pytest.raises(ValueError):
            ops.nystrom_hankel_eigs(0.0, 1.0, 0, 30, 10)

    def test_refuses_bandwidth_past_kernel_domain(self):
        # past c = 40 the double-double kernel loses digits (1.6e-12 at 50,
        # 2.9e-8 at 60 against mpmath), so such c is refused before any work
        assert len(ops.nystrom_hankel_eigs(0.0, 40.0, 0, 20, 5)) == 5
        for c in (40.5, -1.0, float("nan")):
            with pytest.raises(ValueError, match="c <= 40"):
                ops.nystrom_hankel_eigs(0.0, c, 0, 20, 5)

    def test_eigenvector_quadrature_normalized(self):
        pairs = ops.nystrom_hankel_eigs(1.0, 1.0, 0, 120, 3)
        rule = radial_rule(120, 1.0)
        for p in pairs:
            assert float(np.sum(rule.weights * p.vector ** 2)) == pytest.approx(1.0, rel=1e-12)


class TestKernel:
    def test_coincident_points(self):
        assert ops.kernel_K(1.3, 2.0, (0.3, 0.4), (0.3, 0.4)) == 1.0

    def test_sinc_family(self):
        # nu = -1/2 limit: j_{1/2}(x) = sin(x)/x
        y, z = (0.5, 0.1), (-0.2, 0.3)
        d = math.hypot(y[0] - z[0], y[1] - z[1])
        for c in (1.0, 3.0):
            assert ops.kernel_K(-0.5, c, y, z) == pytest.approx(
                math.sin(c * d) / (c * d), abs=1e-14)

    def test_unit_separation(self):
        # nu=0, c=1, |y-z|=2: Gamma(2) (2/2)^1 J_1(2) = J_1(2)
        assert ops.kernel_K(0.0, 1.0, (1.0, 0.0), (-1.0, 0.0)) == pytest.approx(
            J_1_2, abs=1e-13)


class TestWeightedFourier:
    def test_constant_at_origin(self):
        rule = disk_rule(80, 96, 1.0)
        assert ops.apply_weighted_fourier(1.0, 2.0, lambda x, y: np.ones_like(x),
                                          (0.0, 0.0), rule) == pytest.approx(1.0, abs=1e-12)

    def test_node_values_match_callable(self):
        rule = disk_rule(40, 48, 1.0)
        f = lambda x, y: 1.0 + x - 0.5 * y * y
        by_values = ops.apply_weighted_fourier(1.0, 2.0, f(rule.xs, rule.ys), (0.3, -0.4), rule)
        assert by_values == ops.apply_weighted_fourier(1.0, 2.0, f, (0.3, -0.4), rule)

    def test_constant_anywhere_matches_kernel(self):
        # F, applied to 1, equals j_{nu+1}(c |y|) (the z=0 kernel value)
        for nu in (0.0, 2.5):
            rule = disk_rule(100, 128, nu)
            for c, y in [(1.0, (0.4, 0.3)), (3.0, (0.8, -0.2))]:
                val = ops.apply_weighted_fourier(nu, c, lambda x, yy: np.ones_like(x), y, rule)
                ref = ops.kernel_K(nu, c, y, (0.0, 0.0))
                assert abs(val - ref) <= 1e-11

    def test_adjointness(self):
        # <F f, g>_nu = <f, F* g>_nu on random low-degree polynomial pairs;
        # the outer inner products use a coarser rule so the transform values
        # are needed at every node
        nu, c = 1.0, 1.5
        rule = disk_rule(90, 96, nu)
        outer = disk_rule(40, 48, nu)
        rng = np.random.default_rng(4)
        af, ag = rng.normal(size=3), rng.normal(size=3)
        f = lambda x, y: af[0] + af[1] * x + af[2] * x * y
        g = lambda x, y: ag[0] + ag[1] * y + ag[2] * x * x
        Ff = np.array([ops.apply_weighted_fourier(nu, c, f, (xx, yy), rule)
                       for xx, yy in zip(outer.xs, outer.ys)])
        Fsg = np.array([ops.apply_adjoint_fourier(nu, c, g, (xx, yy), rule)
                        for xx, yy in zip(outer.xs, outer.ys)])
        lhs = np.sum(outer.weights * Ff * np.conj(g(outer.xs, outer.ys)))
        rhs = np.sum(outer.weights * f(outer.xs, outer.ys) * np.conj(Fsg))
        assert abs(lhs - rhs) <= 1e-9

    def test_iterated_transform_equals_kernel_integral(self):
        # F* (F f) (y) = integral f(z) j_{nu+1}(c|y-z|) w_nu(z) dz
        nu, c = 1.0, 1.0
        rule = disk_rule(90, 96, nu)
        f = lambda x, y: 1.0 + x - 0.5 * y * y
        y0 = (0.35, -0.2)
        # F f on every rule point at once.  <x, y> = r r' cos(theta - theta')
        # and the angles are uniform, so one phase tensor over (r, angle
        # difference, r') holds every phase of the 8640 x 8640 matrix
        r, th = rule.radial.nodes, rule.thetas
        n_t = len(th)
        phase = np.exp(1j * c * np.multiply.outer(r, np.outer(np.cos(th), r)))
        q = phase @ (rule.weights * f(rule.xs, rule.ys)).reshape(len(r), n_t)
        diff = (np.arange(n_t)[:, None] - np.arange(n_t)) % n_t
        Ff = q[:, diff, np.arange(n_t)].sum(axis=-1).ravel()
        lhs = ops.apply_adjoint_fourier(nu, c, Ff, y0, rule)
        kv = np.array([ops.kernel_K(nu, c, y0, (zx, zy))
                       for zx, zy in zip(rule.xs, rule.ys)])
        rhs = complex(np.sum(rule.weights * kv * f(rule.xs, rule.ys)))
        assert abs(lhs - rhs) <= 1e-8
