"""The package's modules and public names, and the module attributes that
the benchmark's per-layer metrics wrap by name.  The layer tracer skips an
attribute that does not exist, so a refactor that drops or moves one would
leave its metric at zero without an error; it fails here instead."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskslepian
from diskslepian import slepian as sl

# module -> the attributes through which other layers reach it
LAYER_ATTRIBUTES = {
    "slepian": ("solve_modes", "build_spectral_matrix", "symtri_eigen", "eval_phi", "eval_psi"),
    "cli": ("solve_modes", "eval_phi", "eval_psi",
            "cmd_eigs", "cmd_tabulate", "cmd_verify", "cmd_transform"),
    "operators": ("nystrom_hankel_eigs", "apply_finite_hankel", "radial_rule"),
    "verification": ("radial_rule", "disk_rule"),
}


SRC = Path(__file__).resolve().parents[1] / "src"

_EACH_MODULE_IMPORT_SCRIPT = """
import importlib, json, pkgutil, sys
names = ["diskslepian"] + [f"diskslepian.{m.name}" for m in pkgutil.iter_modules([sys.argv[1]])]
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "diskslepian"]:
        del sys.modules[key]
    importlib.import_module(name)
print(json.dumps(names))
"""


def test_each_module_imports_alone_without_warnings():
    # a module that leans on another having been imported first, or that
    # warns at import (a warning is an error here), fails in its own import
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _EACH_MODULE_IMPORT_SCRIPT,
                           str(SRC / "diskslepian")],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        "diskslepian", "diskslepian._ddarith", "diskslepian.cli", "diskslepian.operators",
        "diskslepian.orthopoly", "diskslepian.quadrature", "diskslepian.slepian",
        "diskslepian.specfun", "diskslepian.transforms", "diskslepian.verification"]


def test_every_public_name_resolves():
    assert [name for name in diskslepian.__all__ if not hasattr(diskslepian, name)] == []


# module -> the names it exports that the package root does not re-export
# (the root keeps the solver and the polynomial families)
MODULE_ONLY = {
    "operators": ("apply_adjoint_fourier", "apply_finite_hankel", "apply_L",
                  "apply_weighted_fourier", "kernel_K", "nystrom_hankel_eigs"),
    "quadrature": ("DiskRule", "QuadratureRule", "disk_rule", "gauss_jacobi", "radial_rule"),
    "specfun": ("bessel_j", "gamma_fn", "j_script", "j_small"),
    "transforms": ("ClosedFormResult", "disk_transform_closed",
                   "gegenbauer2d_transform_closed", "lemma1_rhs"),
}


@pytest.mark.parametrize("module", ["slepian", "orthopoly", "specfun", "transforms",
                                    "quadrature", "operators"])
def test_every_module_public_name_resolves(module):
    mod = importlib.import_module(f"diskslepian.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in MODULE_ONLY.get(module, ()) if name not in mod.__all__] == []


def test_every_layer_attribute_exists():
    missing = [f"{mod}.{attr}" for mod, attrs in LAYER_ATTRIBUTES.items()
               for attr in attrs
               if not callable(getattr(importlib.import_module(f"diskslepian.{mod}"), attr, None))]
    assert missing == []


def test_a_solve_builds_and_eigensolves_through_the_module_attributes(monkeypatch):
    # a wrapper installed on the module sees the one build and the one
    # eigensolve of a solve
    calls = []
    for name in ("build_spectral_matrix", "symtri_eigen"):
        real = getattr(sl, name)
        monkeypatch.setattr(sl, name, lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args))
    sl.solve_modes(sl.SlepianParams(nu=0.5, c=10.0, N=1), 5)
    assert calls == ["build_spectral_matrix", "symtri_eigen"]
