"""Only three constructions may build a LieAlgebra without the Jacobi sweep.

``LieAlgebra.read`` skips the sweep because its bracket already satisfies
Jacobi: the matrix commutator in ``build_su1n`` and the bracket of a
parent algebra in ``lie_core.subalgebra``.  ``LieAlgebra.written`` skips
it because its table is a direct sum of blocks, which satisfies Jacobi by
construction: the block algebras that ``psd_builder.build_psd`` writes
for a spec with no cross actions.  Nothing at run time can check either
precondition, so every module of the package is parsed and each ``.read``
or ``.written`` attribute must lie inside a function allowed for it.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
ALLOWED = {
    "read": {("su1n_model.py", "build_su1n"), ("lie_core.py", "subalgebra")},
    "written": {("psd_builder.py", "build_psd")},
}


def attribute_sites(tree, attr: str) -> list:
    """The innermost enclosing function (None at module level) of each
    attribute named attr in a module tree, in source order."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                sites.append(function)
            visit(child, function)

    visit(tree, None)
    return sites


def package_sites(attr: str) -> set:
    """(module file, function) of every attribute named attr in the package."""
    return {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in attribute_sites(ast.parse(path.read_text(), filename=str(path)), attr)
    }


def test_the_guard_sees_every_read_attribute():
    tree = ast.parse(
        "read = LieAlgebra.read\n"
        "def build_su1n(N):\n"
        "    return LieAlgebra.read(frame, mats, lambda a, b: a, labels)\n"
        "def build_psd(spec):\n"
        "    return LieAlgebra.written(labels, structure)\n"
        "def other():\n"
        "    def inner():\n"
        "        return g.read, g.written\n"
    )
    assert attribute_sites(tree, "read") == [None, "build_su1n", "inner"]
    assert attribute_sites(tree, "written") == ["build_psd", "inner"]


def test_sweep_free_construction_stays_in_build_su1n_and_subalgebra():
    assert package_sites("read") == ALLOWED["read"]


def test_written_construction_stays_in_build_psd():
    assert package_sites("written") == ALLOWED["written"]
