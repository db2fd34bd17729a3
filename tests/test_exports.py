"""Every exported name resolves: each module's `__all__` and the names that
`numrange/__init__.py` imports.  A stale `__all__` entry breaks
`from numrange.<module> import *` though the module itself imports."""

import ast
import importlib
from pathlib import Path

import pytest

import numrange

PACKAGE = Path(numrange.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"numrange.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from numrange.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.asname or alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(numrange, name) is getattr(
            importlib.import_module(f"numrange.{module}"), name)
