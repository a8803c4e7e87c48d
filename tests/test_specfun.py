import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskslepian import _ddarith as dd
from diskslepian import specfun as sf
from diskslepian.specfun import _SERIES_CUTOFF, _j_small_series, _miller, _power_gamma

import oracles

# mpmath values frozen at 25 digits
J_3_7P5 = -0.2580609131934603116626593
J_1_2 = 0.5767248077568733872024482
J_0_1 = 0.7651976865579665514497175


def cross_regime_gap():
    """Largest |series - Miller| of J over a band around the cutoff; the
    series runs here past the cutoff too, so both branches meet at every
    point."""
    gap = 0.0
    for order in (0.0, 0.5, 3.7, 10.0, 25.0, 40.0):
        for x in np.linspace(_SERIES_CUTOFF - 0.5, _SERIES_CUTOFF + 0.5, 11):
            a = (x / 2.0) ** order / math.gamma(order + 1.0) * _j_small_series(order, float(x))
            gap = max(gap, abs(a - _power_gamma(float(x), order, order)
                                 * math.ldexp(*_miller(order, float(x)))))
    return gap


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
        assert cross_regime_gap() <= 2e-15

    @pytest.mark.parametrize("order", [100.0, 262.0, 300.0, 600.0])
    def test_cross_regime_continuity_at_high_order(self, order):
        # in j_small units, where J underflows and (x/2)^-order
        # Gamma(order+1) overflows from order 262 at x = 12.5
        for x in np.linspace(_SERIES_CUTOFF - 0.5, _SERIES_CUTOFF + 0.5, 11):
            series = _j_small_series(order, float(x))
            assert abs(math.ldexp(*_miller(order, float(x))) - series) <= 1e-14 * abs(series)

    @pytest.mark.parametrize("fn", [sf.bessel_j, sf.j_small, sf.j_script])
    @pytest.mark.parametrize("order, x, bad", [
        (math.nan, 3.0, "order"), (math.inf, 3.0, "order"),
        (0.5, math.inf, "x"), (0.5, math.nan, "x"), (0.5, -math.inf, "x")])
    def test_non_finite_input_is_refused_by_name(self, fn, order, x, bad):
        name = "(order|nu)" if bad == "order" else "x"
        with pytest.raises(ValueError, match=f"requires a finite {name}, got"):
            fn(order, x)

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


@pytest.mark.parametrize("fn, order, x", [
    ("bessel_j", 40.0, 1e-6), ("bessel_j", 40.0, 11.5), ("bessel_j", 10.0, 1e-6),
    ("j_script", -0.5, 1e-300),
    ("j_small", 40.0, 12.5), ("j_small", 40.0, 20.0), ("j_small", 30.0, 12.5)])
def test_power_gamma_prefactor_keeps_relative_accuracy(fn, order, x):
    # (x/2)^order / Gamma(order+1) as a quotient of normal floats, not as
    # exp(order log(x/2) - lgamma(order+1)), whose relative error is
    # |order log(x/2)| ulps (9.3e-14 for J_40(1e-6)).  The j_small points
    # take the Miller branch, where x < order keeps J free of zeros
    mp = oracles.mp
    J = oracles.bessel_j_mp(order, x)
    ref = {"bessel_j": J, "j_script": mp.sqrt(x) * J,
           "j_small": mp.gamma(order + 1) * (2 / mp.mpf(x)) ** order * J}[fn]
    got = getattr(sf, fn)(order, x)
    assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("order", [41.0, 60.5, 77.0, 104.9, 150.0, 199.0])
def test_j_small_past_the_validated_orders(order):
    # the Lemma 1 oracle of the eigen-equation reads orders N + nu + 2k + 1
    # far past 40; the worst here, 6.4e-14, is at (199, 60)
    mp = oracles.mp
    for x in (1e-6, 0.5, 5.0, 11.9, 12.5, 20.0, 40.0, 60.0):
        with mp.workdps(50):
            ref = mp.gamma(order + 1) * (2 / mp.mpf(x)) ** order * oracles.bessel_j_mp(order, x)
        assert abs(sf.j_small(order, x) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("order, x, value", [(300.0, 13.0, 0.86901222), (380.0, 40.0, 0.34947727)]
                         + [(o, x, None) for o in (262.0, 427.0, 600.0, 1000.0)
                            for x in (12.5, 13.0, 40.0, 60.0)]
                         + [(o, x, None) for o in (-0.9, -0.5, -0.1) for x in (12.5, 33.3, 55.0)])
def test_j_small_at_high_order_past_the_cutoff(order, x, value):
    # past order 261, J underflows here while (x/2)^-order Gamma(order+1)
    # overflows; the negative orders take the recurrence's one extra row
    # below the base order
    mp = oracles.mp
    with mp.workdps(50):
        ref = mp.gamma(order + 1) * (2 / mp.mpf(x)) ** order * oracles.bessel_j_mp(order, x)
    assert value is None or abs(float(ref) - value) <= 1e-8
    assert abs(sf.j_small(order, x) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("order, x, value", [(500.0, 2000.0, 0.0072148248211038814),
                                             (713.0, 1428.0, 0.015120387404872565),
                                             (1000.0, 2000.0, 0.013364551284220439)])
def test_bessel_j_where_j_small_is_below_the_double_range(order, x, value):
    # j_small underflows here (8.8e-369 at (500, 2000)) while
    # (x/2)^order / Gamma(order+1) overflows, so J takes j_small's binary
    # exponent; the log-space factor costs up to about 2e-12
    ref = oracles.bessel_j_mp(order, x)
    assert abs(float(ref) - value) <= 1e-15 * value
    assert abs(sf.bessel_j(order, x) - ref) <= 1e-11 * abs(ref)
    ref_script = oracles.mp.sqrt(x) * ref
    assert abs(sf.j_script(order, x) - ref_script) <= 1e-11 * abs(ref_script)


@pytest.mark.parametrize("x", [1000.0, 5000.0, 20000.0])
def test_j_small_half_order_at_large_argument(x):
    # the trial values span about e^(0.7 x) on the way down, more than the
    # double range from x ~ 2800; unless rescaled they end in NaN at 5000
    ref = math.sin(x) / x
    assert abs(sf.j_small(0.5, x) - ref) <= 1e-13 * abs(ref)


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

    def test_j_script_negative_order_beyond_cutoff(self):
        # nu in (-1/2, 0) above the cutoff takes the Miller branch, not the
        # ascending series, which loses every digit by x = 55
        for nu in (-0.4, -0.25, -0.1):
            for x in (20.0, 30.0, 40.0, 55.0):
                ref = float(oracles.mp.sqrt(x) * oracles.bessel_j_mp(nu, x))
                assert abs(sf.j_script(nu, x) - ref) <= 1e-12

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
        arr = sf.j_script_array(3.5, z)
        for zi, vi in zip(z[1:], arr[1:]):
            assert float(vi) == pytest.approx(sf.j_script(3.5, zi), rel=1e-12, abs=1e-14)
        assert float(arr[0]) == 0.0

    def test_vectorized_kernel_at_order_minus_half_is_finite_at_zero(self):
        # z**0 = 1 at z = 0 too: the limit sqrt(2/pi), not 0 * log(0)
        z = np.array([0.0, 0.5, 3.0])
        for zi, vi in zip(z, sf.j_script_array(-0.5, z)):
            assert float(vi) == pytest.approx(sf.j_script(-0.5, zi), rel=1e-14)

    def test_vectorized_kernel_refuses_beyond_series_cutoff(self):
        ok = np.array([0.5, _SERIES_CUTOFF])
        assert np.all(np.isfinite(sf.j_script_array(2.0, ok)))
        for bad in ([0.5, _SERIES_CUTOFF * (1 + 1e-12)], [0.1, 40.0], [0.1, math.nan]):
            with pytest.raises(ValueError):
                sf.j_script_array(2.0, np.array(bad))


_ROW_CAP_SCRIPT = """
import json
from diskslepian import specfun as sf
out = []
for fn, args in [(sf.j_small, (1e300, 13.0)), (sf.bessel_j, (1e9, 20.0)),
                 (sf.j_script, (0.5, 1e9))]:
    try:
        out.append(repr(fn(*args)))
    except ValueError as exc:
        out.append(str(exc))
print(json.dumps(out))
"""


def test_series_does_not_depend_on_the_coefficient_cache():
    # the cached coefficients of an order and term count are shared by every
    # call that needs them; each value must equal the one built from an
    # empty cache, bit for bit, whatever calls came before it
    args = [(1.3, 11.5, 1e-21), (1.3, 0.5, 1e-21), (1.3, 12.0, 1e-35), (0.0, 3.0, 1e-21),
            (1.3, np.array([0.5, 6.0, 12.0]), 1e-35), (0.0, 12.0, 1e-21), (1.3, 2.0, 1e-21)]

    def series(order, z, tol):
        out = dd.jsmall_series(order, z, np.zeros_like(z), tol)
        return np.asarray(out[0]).tobytes() + np.asarray(out[1]).tobytes()

    dd._series_coeffs.cache_clear()
    warm = [series(*a) for a in args]
    for a, got in zip(args, warm):
        dd._series_coeffs.cache_clear()
        assert series(*a) == got


def test_miller_cost_is_bounded():
    # the Miller recurrence runs from above max(order, x): these would run
    # for minutes or forever, so they are refused by name; a subprocess
    # with a timeout makes a regression fail rather than hang
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", _ROW_CAP_SCRIPT],
                         capture_output=True, text=True, env=env, timeout=10)
    assert out.returncode == 0, out.stderr
    msgs = json.loads(out.stdout.splitlines()[-1])
    for msg, (order, x) in zip(msgs, [("1e+300", "13.0"), ("1000000000.0", "20.0"),
                                      ("0.5", "1000000000.0")]):
        assert f"order {order} and x = {x} would run more than 100000 rows" in msg


_PLAIN_DOUBLE_SCRIPT = """
import json, math, sys
import numpy
numpy.longdouble = numpy.float64
numpy.clongdouble = numpy.complex128
from diskslepian.specfun import j_script
sys.path.insert(0, sys.argv[1])
from test_specfun import cross_regime_gap
print(json.dumps({
    "j_script_err": abs(j_script(0.5, 11.0) - math.sqrt(2 / math.pi) * math.sin(11.0)),
    "gap": cross_regime_gap(),
}))
"""


def test_accuracy_does_not_rest_on_extended_longdouble():
    # where numpy.longdouble is plain double (macOS arm64, Windows), the
    # Bessel core must keep its digits; alias it before the package loads
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(tests_dir), "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", _PLAIN_DOUBLE_SCRIPT, tests_dir],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["j_script_err"] <= 1e-14
    assert res["gap"] <= 2e-15
