"""Every exported name resolves, and each name is imported from its own module."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shiftsse

MODULES = sorted(info.name for info in pkgutil.iter_modules(shiftsse.__path__))
SRC = str(Path(shiftsse.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"shiftsse.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _loaded_after(statement: str) -> list[str]:
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    probe = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    return out.stdout.split()


def test_package_root_loads_only_what_is_imported():
    assert [m for m in _loaded_after("import shiftsse") if m.startswith("shiftsse.")] == []
    loaded = _loaded_after("import shiftsse.sampler")
    assert [m for m in loaded if m.startswith("shiftsse.")] == [
        "shiftsse.estimators", "shiftsse.model", "shiftsse.sampler", "shiftsse.statevec",
    ]
    assert "argparse" not in loaded


def test_harness_import_loads_no_cli_or_pool_module():
    # argparse, csv, subprocess and the process pool load only on the
    # paths that use them, not for a library `run`
    loaded = _loaded_after("import shiftsse.harness")
    assert [m for m in ("argparse", "csv", "subprocess", "concurrent.futures")
            if m in loaded] == []
