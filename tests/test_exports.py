"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import bipart

MODULES = ["graphs", "spectral", "partition", "coverage", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bipart.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public():
    tree = ast.parse(Path(bipart.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"bipart.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(bipart, name) is getattr(module, name), (module_name, name)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, skipping lines marked ``# noqa: F401``.

    A name counts as read when it appears as a name node or in ``__all__``.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


SOURCES = sorted(p for p in Path(bipart.__file__).parent.glob("*.py") if p.name != "__init__.py")


# The package __init__ imports only to re-export; test_package_reexports_are_public checks those.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []


def _self_calls(path: Path) -> list[str]:
    """Functions that call their own name, as ``f(...)``, ``self.f(...)`` or
    ``cls.f(...)``, anywhere in their body."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and getattr(callee.value, "id", None) in ("self", "cls"):
                    callee = ast.Name(callee.attr)
                if isinstance(callee, ast.Name) and callee.id == fn.name:
                    found.append(f"{fn.name} (line {node.lineno})")
    return found


# Every exhaustive routine runs on an explicit stack, so no input can raise RecursionError.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_has_no_recursion(path):
    assert _self_calls(path) == []


def _packed_format_calls(path: Path) -> list[str]:
    """Calls that know the packed bit format: ``packbits``, ``unpackbits``, or
    any call passing ``bitorder``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in ("packbits", "unpackbits") or any(k.arg == "bitorder" for k in node.keywords):
                found.append(f"{name} (line {node.lineno})")
    return found


# graphs.py fixes the bit order of Graph.packed; every other module goes through its helpers.
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_packed_format_lives_in_graphs(path):
    calls = _packed_format_calls(path)
    assert bool(calls) if path.name == "graphs.py" else calls == []
