"""Every exported name resolves: a stale `__all__` entry fails here."""

import importlib
import pkgutil

import pytest

import vanetgame

MODULES = ["vanetgame"] + [f"vanetgame.{m.name}"
                           for m in pkgutil.iter_modules(vanetgame.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
