"""Layer boundaries of ``diskslepian`` and the per-layer metrics read from them.

Each layer reaches another through a module attribute bound at import time
(``from .quadrature import radial_rule`` puts ``radial_rule`` into
``diskslepian.slepian``), so wrapping that attribute times exactly the calls
made across the boundary.  The same span name may be installed in several
modules when several layers call one function.
"""

import importlib

from tracer import empty_totals

SUITES = ("lemma1", "theorem41", "theorem42", "kernel", "commute",
          "nystrom", "orthogonality")
COMMANDS = ("eigs", "tabulate", "verify", "transform")


def _points(mode, params, x, *rest):
    return getattr(x, "size", 1)


# (module, attribute, span name, units); the span name is the layer reached
TARGETS = [
    ("slepian", "solve_modes", "slepian.solve_modes", None),
    ("cli", "solve_modes", "slepian.solve_modes", None),
    ("slepian", "build_spectral_matrix", "slepian.build_spectral_matrix", None),
    ("slepian", "symtri_eigen", "linalg.symtri_eigen", None),
    ("slepian", "radial_rule", "quadrature.radial_rule", None),
    ("slepian", "j_script_over_power_array", "specfun.j_script_over_power_array", None),
    ("slepian", "eval_phi", "slepian.eval_phi", _points),
    ("cli", "eval_phi", "slepian.eval_phi", _points),
    ("slepian", "eval_psi", "slepian.eval_psi", _points),
    ("cli", "eval_psi", "slepian.eval_psi", _points),
    ("quadrature", "radial_rule", "quadrature.radial_rule", None),
    ("quadrature", "symtri_eigen", "quadrature.golub_welsch_eigen", None),
    ("operators", "radial_rule", "quadrature.radial_rule", None),
    ("verification", "radial_rule", "quadrature.radial_rule", None),
    ("transforms", "disk_rule", "quadrature.disk_rule", None),
    ("verification", "disk_rule", "quadrature.disk_rule", None),
    ("transforms", "derived_constant", "transforms.derived_constant", None),
    ("operators", "nystrom_hankel_eigs", "operators.nystrom_hankel_eigs", None),
    ("operators", "apply_finite_hankel", "operators.apply_finite_hankel", None),
] + [("cli", f"cmd_{cmd}", f"cli.{cmd}", None) for cmd in COMMANDS]


def install(tracer):
    """Wrap every layer boundary that exists in the imported package."""
    for mod, attr, name, units in TARGETS:
        tracer.wrap(importlib.import_module(f"diskslepian.{mod}"), attr, name, units)
    suites = importlib.import_module("diskslepian.verification").SUITES
    for suite in SUITES:
        tracer.wrap(suites, suite, f"verification.{suite}")


# per-layer metric -> (span name, field); every value is a total per op
_FIELDS = {
    "quadrature.radial_rule.calls": ("quadrature.radial_rule", "calls"),
    "quadrature.radial_rule.misses": ("quadrature.radial_rule", "misses"),
    "quadrature.radial_rule.cold_ms": ("quadrature.radial_rule", "miss_ms"),
    "quadrature.golub_welsch_eigen_ms": ("quadrature.golub_welsch_eigen", "ms"),
    "quadrature.disk_rule.misses": ("quadrature.disk_rule", "misses"),
    "quadrature.disk_rule.cold_ms": ("quadrature.disk_rule", "miss_ms"),
    "transforms.derived_constant.calls": ("transforms.derived_constant", "calls"),
    "transforms.derived_constant.ms": ("transforms.derived_constant", "ms"),
    "slepian.solve_modes.calls": ("slepian.solve_modes", "calls"),
    "slepian.solve_modes.self_ms": ("slepian.solve_modes", "self_ms"),
    "specfun.j_script_over_power_array.calls": ("specfun.j_script_over_power_array", "calls"),
    "specfun.j_script_over_power_array.ms": ("specfun.j_script_over_power_array", "ms"),
    "linalg.symtri_eigen.ms": ("linalg.symtri_eigen", "ms"),
    "slepian.build_spectral_matrix.calls": ("slepian.build_spectral_matrix", "calls"),
    "slepian.build_spectral_matrix.ms": ("slepian.build_spectral_matrix", "ms"),
    "slepian.eval_phi.points": ("slepian.eval_phi", "units"),
    "slepian.eval_phi.ms": ("slepian.eval_phi", "ms"),
    "slepian.eval_psi.points": ("slepian.eval_psi", "units"),
    "slepian.eval_psi.ms": ("slepian.eval_psi", "ms"),
    "operators.nystrom_hankel_eigs.ms": ("operators.nystrom_hankel_eigs", "ms"),
    "operators.apply_finite_hankel.calls": ("operators.apply_finite_hankel", "calls"),
    "operators.apply_finite_hankel.ms": ("operators.apply_finite_hankel", "ms"),
    **{f"verification.{s}.ms": (f"verification.{s}", "ms") for s in SUITES},
    **{f"cli.{c}.ms": (f"cli.{c}", "ms") for c in COMMANDS},
}


def metrics(agg, n_ops):
    """Per-op layer metrics from merged span totals over ``n_ops`` ops."""
    zero = empty_totals()
    out = {name: agg.get(span, zero)[field] / n_ops
           for name, (span, field) in _FIELDS.items()}
    rules = agg.get("quadrature.radial_rule", zero)
    # no calls at all reads as a ratio of 0, not as a perfect cache
    out["quadrature.radial_rule.hit_ratio"] = (
        1 - rules["misses"] / rules["calls"] if rules["calls"] else 0.0)
    builds = agg.get("slepian.build_spectral_matrix", zero)["calls"]
    solves = agg.get("slepian.solve_modes", zero)["calls"]
    out["slepian.truncation_doublings"] = (builds - solves) / n_ops
    out["slepian.useful_build_ratio"] = solves / builds if builds else 0.0
    return out


_UNITS = {"setup_s": "s", "import.s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def unit_of(name):
    """Unit of any metric the benchmark reports."""
    if name in _UNITS:
        return _UNITS[name]
    if name.startswith("accuracy."):
        return "1"
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"
