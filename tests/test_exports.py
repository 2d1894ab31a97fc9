"""Every ``__all__`` entry resolves, and the package re-exports only public
names of its modules."""
import ast
import importlib
import pathlib

import pytest

import funcause

PACKAGE_DIR = pathlib.Path(funcause.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _module(name):
    return importlib.import_module(f"funcause.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = _module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_only_listed_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = _module(node.module)
            if hasattr(module, "__all__"):
                unlisted += [
                    f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__
                ]
    assert not unlisted
