"""Every name a bitweave module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bitweave

MODULES = sorted(info.name for info in pkgutil.iter_modules(bitweave.__path__, "bitweave."))


def test_every_module_is_listed():
    assert {name.split(".")[1] for name in MODULES} >= {
        "cachesim", "cachespec", "cli", "evolve", "fitness", "layout", "patterns",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [item for item in module.__all__ if not hasattr(module, item)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
