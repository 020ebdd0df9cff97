"""Every exported name resolves, so no deleted function lingers in an export list."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import shiftsse

MODULES = sorted(info.name for info in pkgutil.iter_modules(shiftsse.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"shiftsse.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve_and_are_public():
    tree = ast.parse(inspect.getsource(shiftsse))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"shiftsse.{module_name}")
        assert hasattr(shiftsse, name), name
        assert name in module.__all__, f"{module_name}.{name}"
