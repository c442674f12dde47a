"""Every name a bitweave module lists in ``__all__`` exists, and the package
exports those of its library modules."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", [name for name in MODULES if name != "bitweave.cli"])
def test_package_exports_every_library_name(name):
    module = importlib.import_module(name)
    exported = {item: getattr(bitweave, item, None) for item in module.__all__}
    assert [item for item, value in exported.items() if value is not getattr(module, item)] == []


def test_import_loads_no_command_line():
    # The command line and argparse stay out of the library's import time.
    code = "import sys, bitweave; print(sorted({'argparse', 'bitweave.cli'} & set(sys.modules)))"
    src = str(Path(bitweave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
