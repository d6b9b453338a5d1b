from __future__ import annotations

import ast
import importlib
from pathlib import Path

from ghcseries.rootsys import WeylElement

ORACLES = Path(__file__).with_name("oracles.py")


def _shared(obj) -> bool:
    """Whether importing obj would share library code with the oracles."""
    is_error = isinstance(obj, type) and issubclass(obj, Exception)
    return not (is_error or obj is WeylElement)


def test_oracles_import_only_error_classes_and_weyl_element():
    tree = ast.parse(ORACLES.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "ghcseries", alias.name
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ghcseries":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert alias.name != "*", node.module
                assert not _shared(getattr(module, alias.name)), alias.name
