"""The package imports nothing outside the Python standard library.

The README promises no dependencies outside the standard library, while
the test environment carries third-party packages (pytest, hypothesis),
so a stray import would pass every other test.  Every module of the
package is parsed, and each absolute import must name a top-level
module in ``sys.stdlib_module_names``; relative imports stay inside the
package.  The same parse keeps JSON at one boundary: exporters return
plain data and only ``cli`` imports ``json``.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(tree) -> list:
    """Top-level module names of the absolute imports in a module tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [n for n in absolute_imports(tree) if n not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside} from outside the standard library"


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom hypothesis import given\nfrom . import linalg\n")
    assert absolute_imports(tree) == ["os", "hypothesis"]


def test_only_cli_imports_json():
    importers = [
        path.name for path in MODULES if "json" in absolute_imports(ast.parse(path.read_text()))
    ]
    assert importers == ["cli.py"]


# Modules that cost every process that loads them: dataclasses pulls in
# inspect, ast, dis and tokenize; typing is only needed for names that
# ``from __future__ import annotations`` leaves as strings anyway.
COSTLY = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_costly_module(path):
    costly = COSTLY.intersection(absolute_imports(ast.parse(path.read_text())))
    assert not costly, f"{path.name} imports {sorted(costly)}"
