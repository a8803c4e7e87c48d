import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskslepian import specfun as sf
from diskslepian.specfun import _SERIES_CUTOFF, _bessel_miller_ld, _bessel_series_ld

import oracles

# mpmath values frozen at 25 digits
J_3_7P5 = -0.2580609131934603116626593
J_1_2 = 0.5767248077568733872024482
J_0_1 = 0.7651976865579665514497175


class TestGamma:
    def test_trivial_values(self):
        assert sf.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
        assert sf.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_relative_error_band(self):
        for x in np.linspace(0.5, 50.0, 173):
            ref = float(oracles.mp.gamma(float(x)))
            assert abs(sf.gamma_fn(float(x)) - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.5, max_value=49.0))
    def test_functional_equation(self, x):
        assert sf.gamma_fn(x + 1.0) == pytest.approx(x * sf.gamma_fn(x), rel=1e-13)

    def test_pole_error(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                sf.gamma_fn(x)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            sf.gamma_fn(400.0)

    def test_reflection_branch(self):
        assert sf.gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


class TestBesselJ:
    def test_trivial(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(3.0, 0.0) == 0.0
        assert sf.bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-13)

    def test_derived_frozen_value(self):
        assert sf.bessel_j(3.0, 7.5) == pytest.approx(J_3_7P5, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(-0.5, 1.0)

    def test_accuracy_band(self):
        rng = np.random.default_rng(7)
        cases = [(0.0, 30.0), (0.0, 60.0), (40.0, 60.0), (40.0, 13.0),
                 (20.0, 40.0), (12.5, 55.0), (0.5, 59.5)]
        cases += [(float(o), float(x)) for o, x in
                  zip(rng.uniform(0, 40, 40), rng.uniform(0.01, 60, 40))]
        for order, x in cases:
            ref = float(oracles.bessel_j_mp(order, x))
            assert abs(sf.bessel_j(order, x) - ref) <= 1e-12

    def test_cross_regime_continuity(self):
        # both evaluation branches must agree in a band around the cutoff
        for order in (0.0, 0.5, 3.7, 10.0, 25.0, 40.0):
            for x in np.linspace(_SERIES_CUTOFF - 0.5, _SERIES_CUTOFF + 0.5, 11):
                a = float(_bessel_series_ld(order, float(x)))
                b = float(_bessel_miller_ld(order, float(x)))
                assert abs(a - b) <= 1e-13

    @staticmethod
    def _j_any(order, x):
        # orders in (-1, 0) reached via the normalized variant
        if order >= 0:
            return sf.bessel_j(order, x)
        return (x / 2.0) ** order * sf.j_small(order, x) / sf.gamma_fn(order + 1)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.5, max_value=20.0),
           st.floats(min_value=0.1, max_value=40.0))
    def test_recurrence_residual(self, order, x):
        res = (self._j_any(order - 1, x) + sf.bessel_j(order + 1, x)
               - (2 * order / x) * sf.bessel_j(order, x))
        assert abs(res) <= 1e-10


class TestNormalizedVariants:
    def test_j_small_at_zero(self):
        for nu in (-0.5, 0.0, 1.0, 7.3):
            assert sf.j_small(nu, 0.0) == 1.0

    def test_j_small_half_order_closed_form(self):
        for x in (0.3, 1.7, 9.0):
            assert sf.j_small(0.5, x) == pytest.approx(math.sin(x) / x, abs=1e-14)

    def test_j_small_derived(self):
        # Gamma(2) (2/2)^1 J_1(2) = J_1(2)
        assert sf.j_small(1.0, 2.0) == pytest.approx(J_1_2, abs=1e-13)

    def test_j_small_large_argument(self):
        for nu, x in ((0.7, 25.0), (-0.5, 20.0), (3.0, 57.0)):
            ref = float(oracles.mp.gamma(nu + 1) * (2 / oracles.mp.mpf(x)) ** nu
                        * oracles.bessel_j_mp(nu, x))
            assert sf.j_small(nu, x) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_j_script_basics(self):
        assert sf.j_script(1.0, 0.0) == 0.0
        assert sf.j_script(0.2, 0.0) == 0.0
        assert sf.j_script(-0.5, 0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
        for x in (0.4, 2.0, 11.0):
            assert sf.j_script(0.5, x) == pytest.approx(
                math.sqrt(2 / math.pi) * math.sin(x), abs=1e-13)
        assert sf.j_script(0.0, 1.0) == pytest.approx(J_0_1, abs=1e-13)

    def test_j_script_rejects_divergent_order(self):
        with pytest.raises(ValueError):
            sf.j_script(-0.75, 0.5)

    def test_script_ode_residual(self):
        # scriptJ'' = -(1 + (1/4 - N^2)/z^2) scriptJ, by central differences
        h = 1e-4
        for N in (0, 1, 3, 8):
            for z in (0.7, 1.9, 6.3, 14.0):
                d2 = (sf.j_script(N, z + h) - 2 * sf.j_script(N, z)
                      + sf.j_script(N, z - h)) / h ** 2
                rhs = -(1 + (0.25 - N * N) / (z * z)) * sf.j_script(N, z)
                assert abs(d2 - rhs) <= 1e-6

    def test_vectorized_kernel_matches_scalar(self):
        z = np.linspace(0.0, 11.5, 97)
        arr = sf.j_script_over_power_array(3.5, z.astype(np.longdouble), 1.5)
        for zi, vi in zip(z[1:], arr[1:]):
            assert float(vi) == pytest.approx(sf.j_script(3.5, zi) / zi ** 1.5,
                                              rel=1e-12, abs=1e-14)
        assert float(arr[0]) == 0.0

    def test_vectorized_kernel_refuses_beyond_series_cutoff(self):
        ok = np.array([0.5, _SERIES_CUTOFF], dtype=np.longdouble)
        assert np.all(np.isfinite(sf.j_script_over_power_array(2.0, ok, 0.0)))
        for bad in ([0.5, _SERIES_CUTOFF * (1 + 1e-12)], [0.1, 40.0]):
            with pytest.raises(ValueError):
                sf.j_script_over_power_array(2.0, np.array(bad, dtype=np.longdouble), 0.0)
