"""The package and each module: a star import works and every ``__all__``
entry resolves to the module's own binding; the package surface stays
small, importing it loads no scipy, and the benchmark's imports
resolve."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import minpinv
import minpinv._kernels
import minpinv.mpm

MODULES = ["minpinv"] + [f"minpinv.{info.name}"
                         for info in pkgutil.iter_modules(minpinv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for entry in exported:
        assert namespace[entry] is getattr(module, entry)


def test_package_exports_at_most_23_names():
    assert len(minpinv.__all__) <= 23


def test_imports_without_scipy():
    """numpy is the only runtime dependency: importing the package and
    its CLI in a fresh interpreter loads no scipy module."""
    src = os.path.dirname(os.path.dirname(minpinv.__file__))
    code = ("import sys, minpinv, minpinv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_benchmark_imports_resolve(monkeypatch):
    """The benchmark in perfbench/ imports and reads these names, so a cut
    to the surface that drops one breaks every benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        for name in ("workloads", "checks"):
            sys.modules.pop(name, None)
    assert workloads.spectrum_distance_sq is minpinv.mpm.spectrum_distance_sq
    assert callable(minpinv._kernels.filter_x)
    assert isinstance(minpinv._kernels.USING_NUMBA, bool)
    # perfbench/tracing.py wraps the root finder by these names and passes
    # eval_fn and breaks positionally; its span names come from __module__
    params = inspect.signature(minpinv.mpm.solve_generalized_root).parameters
    assert list(params)[:2] == ["eval_fn", "breaks"]
    for name in ("solve_generalized_root", "solve_level", "minimal_pseudoinverse"):
        assert getattr(minpinv.mpm, name).__module__ == "minpinv.mpm"
