"""Tests of the benchmark's own parts: mu oracle, gates, tracer, generator.

Run from the repository root with ``python3 -m pytest bench``.
"""

import functools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("c", [1.0, 5.0, 20.0])
def test_oracle_matches_library_double_double_nystrom(c):
    from diskslepian.operators import nystrom_hankel_eigs
    nu, N, count = 1.0, 1, 8
    lib = sorted((abs(p.value) for p in nystrom_hankel_eigs(nu, c, N, 300, count)),
                 reverse=True)
    ref = oracle.MuOracle(nu, c, N)
    ranks = [i for i in range(count) if ref.resolved[i]]
    assert ranks[:1] == [0]
    for i in ranks:
        assert abs(lib[i] - ref.values[i]) <= 1e-10 * ref.values[i]


def test_mu_gate_passes_the_solver_and_rejects_perturbations():
    from diskslepian.slepian import SlepianParams, solve_modes
    nu, c, N = 0.7, 5.0, 2
    modes = solve_modes(SlepianParams(nu=nu, c=c, N=N), 12)
    mus, lams = [m.mu for m in modes], [m.lam for m in modes]
    gate = oracle.MuOracle(nu, c, N)
    assert gate.check(c, mus, lams)[0]
    assert not gate.check(c, [mus[0], mus[1] * (1 + 1e-6), *mus[2:]], lams)[0]
    assert not gate.check(c, mus, [*lams[:-1], 1.5])[0]
    assert not gate.check(c, [math.nan, *mus[1:]], lams)[0]


def test_oracle_rule_is_exact_for_odd_radial_polynomials():
    # integral_0^1 t^(2k+1) (1-t^2)^nu dt = k! Gamma(nu+1) / (2 Gamma(k+nu+2))
    for nu in (0.0, 0.7, 2.5):
        t, w = oracle.radial_rule(40, nu)
        for k in range(40):
            exact = math.exp(math.lgamma(k + 1) + math.lgamma(nu + 1)
                             - math.lgamma(k + nu + 2)) / 2
            assert abs((w * t ** (2 * k + 1)).sum() - exact) <= 1e-12 * exact


def test_grid_gate_rejects_a_rescaled_evaluation():
    wl = workloads.GridEval(3)
    wl.import_program()
    wl.cold_pass()
    assert wl.prepare()
    for op in [("phi", 0, 2), ("psi", 1, 4)]:
        out = wl.run(op)
        assert wl.check(op, out)[0]
        assert not wl.check(op, out * (1 + 1e-6))[0]


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    ns = SimpleNamespace()
    ns.leaf = lambda: None

    def inner(first):
        if first:
            ns.leaf()

    def outer():
        ns.inner(True)
        ns.inner(False)

    ns.inner, ns.outer = inner, outer
    for attr in ("leaf", "inner", "outer"):
        assert tracer.wrap(ns, attr, attr)
    ns.outer()
    agg = tracer.aggregate()
    assert agg["outer"]["ms"] == 10_000 and agg["outer"]["self_ms"] == 7_000
    assert agg["inner"]["calls"] == 2
    assert agg["inner"]["ms"] == 3_000 and agg["inner"]["self_ms"] == 2_000
    assert agg["leaf"]["ms"] == agg["leaf"]["self_ms"] == 1_000
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    tracer.restore()
    assert ns.outer is outer and ns.inner is inner


def test_cache_misses_and_missing_targets():
    tracer = Tracer()
    ns = SimpleNamespace(rule=functools.lru_cache(maxsize=None)(lambda n: n * n))
    assert tracer.wrap(ns, "rule", "quadrature.radial_rule")
    assert not tracer.wrap(ns, "gone", "quadrature.disk_rule")
    assert not tracer.wrap({}, "lemma1", "verification.lemma1")
    for n in (3, 3, 4):
        ns.rule(n)
    out = layers.metrics(tracer.aggregate(), 1)
    assert out["quadrature.radial_rule.calls"] == 3
    assert out["quadrature.radial_rule.misses"] == 2
    assert out["quadrature.radial_rule.hit_ratio"] == pytest.approx(1 / 3)
    assert out["quadrature.disk_rule.misses"] == 0
    assert out["verification.lemma1.ms"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert make(7).ops == make(7).ops
    if name != "verify_quick":
        assert make(7).ops != make(8).ops


def test_sweep_covers_its_ranges_by_strata():
    ops = workloads.SpectrumSweep(5).ops
    n_ops = workloads.SWEEP_NU_STRATA * workloads.SWEEP_C_PER_NU
    assert len(ops) == n_ops
    assert all(0 <= nu <= 3 and 0.5 <= c <= 80 and 0 <= N <= 4 and 10 <= m <= 30
               for nu, c, N, m in ops)
    strata = sorted(int(n_ops * math.log(c / 0.5) / math.log(160)) for _, c, _, _ in ops)
    assert strata == list(range(n_ops))
    assert len({nu for nu, _, _, _ in ops}) == workloads.SWEEP_NU_STRATA


def test_verify_gate_needs_every_check_to_pass():
    ok = b"PASS  a: error 1e-15 (tol 1e-07)\nPASS  b: error 2e-15 (tol 1e-07)\n2/2 checks passed\n"
    assert workloads.all_checks_pass(ok)
    assert not workloads.all_checks_pass(ok.replace(b"PASS  b", b"FAIL  b"))
    assert not workloads.all_checks_pass(ok.replace(b"2/2", b"1/2"))
    assert not workloads.all_checks_pass(b"")
