"""The package and each module: a star import works and every ``__all__``
entry resolves to the module's own binding."""

import importlib
import pkgutil

import pytest

import minpinv

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
