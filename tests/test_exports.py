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
