"""Only three functions may build a LieAlgebra without the Jacobi sweep.

``LieAlgebra.written`` skips the sweep, and its caller proves Jacobi in
its own docstring: ``psd_builder.build_psd`` for a direct sum of blocks
(a spec with no cross actions), ``su1n_model.Su1nModel.algebra`` for the
matrix commutator its table is read from, and ``lie_core.subalgebra``
for the bracket of a parent algebra.  Nothing at run time can check any
such proof, so every module of the package is parsed and each
``.written`` attribute must lie inside one of those functions: in
su1n_model and lie_core only Su1nModel.algebra and subalgebra, and in
every other module only build_psd.

The chart and the retract module read their brackets off the basis
matrices, never off the model's stored structure table, so that the
qmm and retract paths do not build that table: neither reads an
``.algebra`` attribute, and ball_quantization reads no ``.rows`` or
``.structure`` either.  The chart reads each bracket through the
model's int read (su1n_model.bracket_read) and forms no commutator of
its own.  It turns a chart vector into its matrix (su1n_model.gaussian)
at one call site, the chart's kept read, which its gram, brackets and
orbit moments all read.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
# Callers whose bracket already satisfies Jacobi: a matrix commutator and
# the bracket of a parent algebra.
INHERITED = {("su1n_model.py", "algebra"), ("lie_core.py", "subalgebra")}
INHERITED_MODULES = {module for module, _ in INHERITED}
# The caller whose table is a direct sum of blocks.
BLOCK_SUM = {("psd_builder.py", "build_psd")}


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


def call_sites(tree, name: str) -> list:
    """The enclosing class and function names of each call of name, plain
    or as an attribute, in a module tree, in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                sites.append(scope)
            visit(child, scope)

    visit(tree, ())
    return sites


def package_sites(attr: str) -> set:
    """(module file, function) of every attribute named attr in the package."""
    return {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in attribute_sites(ast.parse(path.read_text(), filename=str(path)), attr)
    }


def test_the_guard_sees_every_written_attribute():
    tree = ast.parse(
        "written = LieAlgebra.written\n"
        "def build_su1n(N):\n"
        "    return LieAlgebra.written(labels, _structure(mats, labels))\n"
        "def build_psd(spec):\n"
        "    return LieAlgebra.written(labels, structure)\n"
        "def other():\n"
        "    def inner():\n"
        "        return g.written\n"
    )
    assert attribute_sites(tree, "written") == [None, "build_su1n", "build_psd", "inner"]


def test_sweep_free_construction_stays_in_the_model_table_and_subalgebra():
    sites = package_sites("written")
    assert {site for site in sites if site[0] in INHERITED_MODULES} == INHERITED
    path = PACKAGE / "su1n_model.py"
    assert call_sites(ast.parse(path.read_text(), filename=str(path)), "written") == [
        ("Su1nModel", "algebra")
    ]


def test_written_construction_stays_in_build_psd():
    sites = package_sites("written")
    assert {site for site in sites if site[0] not in INHERITED_MODULES} == BLOCK_SUM


def test_the_chart_module_reads_no_stored_table():
    path = PACKAGE / "ball_quantization.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert attribute_sites(tree, "rows") == attribute_sites(tree, "structure") == []


@pytest.mark.parametrize("module", ["ball_quantization.py", "retract_pde.py"])
def test_the_chart_and_retract_modules_read_no_model_algebra(module):
    path = PACKAGE / module
    assert attribute_sites(ast.parse(path.read_text(), filename=str(path)), "algebra") == []


def names(tree) -> set:
    """Every name a module tree mentions: plain names, attribute names and
    imported names (with their aliases)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name, node.asname}
    return out - {None}


def test_the_guard_sees_every_name():
    tree = ast.parse(
        "from .su1n_model import _commutator as c\n"
        "import ballquant.su1n_model as sm\n"
        "def read(x):\n"
        "    return sm.coordinates(n, c(x, y))\n"
    )
    assert {"_commutator", "c", "ballquant.su1n_model", "sm", "coordinates", "x"} <= names(tree)


def test_the_chart_module_forms_no_commutator_of_its_own():
    path = PACKAGE / "ball_quantization.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not names(tree) & {"_commutator", "coordinates"}


def test_the_guard_sees_every_call():
    tree = ast.parse(
        "read = gaussian(m, x)\n"
        "class Chart:\n"
        "    def reads(self):\n"
        "        return [su1n_model.gaussian(m, x) for x in f(gaussian(m, y))]\n"
        "def other():\n"
        "    return gaussian\n"
    )
    assert call_sites(tree, "gaussian") == [(), ("Chart", "reads"), ("Chart", "reads")]


def test_the_chart_module_reads_each_matrix_at_one_site():
    path = PACKAGE / "ball_quantization.py"
    sites = call_sites(ast.parse(path.read_text(), filename=str(path)), "gaussian")
    assert len(sites) == 1 and sites[0][0] == "BallChart", sites
