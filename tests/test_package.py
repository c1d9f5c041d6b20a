"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import simonstruct


def test_every_name_in_all_exists_on_its_module():
    # a name left in __all__ after its deletion breaks `from module import *`
    checked = 0
    for info in pkgutil.iter_modules(simonstruct.__path__):
        module = importlib.import_module(f"simonstruct.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"simonstruct.{info.name}.__all__ lists missing {missing}"
        assert len(set(names)) == len(names), f"simonstruct.{info.name}.__all__ repeats a name"
        checked += 1
    assert checked >= 9
