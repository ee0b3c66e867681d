"""Only two constructions may build a LieAlgebra without the Jacobi sweep.

``LieAlgebra.read`` skips the sweep because its bracket already satisfies
Jacobi: the matrix commutator in ``build_su1n`` and the bracket of a
parent algebra in ``lie_core.subalgebra``.  Nothing at run time can
check that precondition, so every module of the package is parsed and
each ``.read`` attribute must lie inside one of those two functions.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
ALLOWED = {("su1n_model.py", "build_su1n"), ("lie_core.py", "subalgebra")}


def read_sites(tree) -> list:
    """The innermost enclosing function (None at module level) of each
    ``.read`` attribute in a module tree, in source order."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "read":
                sites.append(function)
            visit(child, function)

    visit(tree, None)
    return sites


def test_the_guard_sees_every_read_attribute():
    tree = ast.parse(
        "read = LieAlgebra.read\n"
        "def build_su1n(N):\n"
        "    return LieAlgebra.read(frame, mats, lambda a, b: a, labels)\n"
        "def other():\n"
        "    def inner():\n"
        "        return g.read\n"
    )
    assert read_sites(tree) == [None, "build_su1n", "inner"]


def test_sweep_free_construction_stays_in_build_su1n_and_subalgebra():
    sites = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in read_sites(ast.parse(path.read_text(), filename=str(path)))
    }
    assert sites == ALLOWED
