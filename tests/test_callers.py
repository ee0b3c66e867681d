"""Every public definition of the package has a caller in the package.

A public function, class or method of ``src/ballquant`` that no other
part of the package names is code outside every claim: a second
implementation of a check that already runs elsewhere, or an API that
only tests call.  Every module is parsed, and each public module-level
function and class, and each public method of a public class, must be
named (as a name or an attribute) somewhere in the package outside its
own body, the CLI included.  A method counts as called only where an
attribute of its name is read (``x.name``): a bare name that happens to
match, a local lambda or variable, does not call it.  The
definitions that are kept on purpose without a caller are listed in
ALLOWLIST, one reason each; a listed name that gains a caller or goes
away must leave the list too.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"

BENCHMARK = "read by the benchmark (perfbench), so it moves only with the benchmark"
EXPORT = "import/export API: reads or writes one of the package's JSON formats"
ALLOWLIST = {
    "ball_quantization.group_mul": "the chart's group law, a claim only tests check",
    "ball_quantization.group_identity": "the chart's group law, a claim only tests check",
    "ball_quantization.group_inverse": "the chart's group law, a claim only tests check",
    "ball_quantization.calibrate": "the unique scale conventions, a claim only tests check",
    "ball_quantization.classical_moment": BENCHMARK,
    "ce_cohomology.random_two_cochain": BENCHMARK,
    "ce_cohomology.cocycle_space": BENCHMARK,
    "ce_cohomology.check_psd_cocycle_conditions": BENCHMARK,
    "ce_cohomology.coboundary_primitive_psd": BENCHMARK,
    "ce_cohomology.cochain_to_json": EXPORT,
    "ce_cohomology.cochain_from_json": EXPORT,
    "formal_star.c_operator": BENCHMARK,
    "formal_star.star_commutator": BENCHMARK,
    "formal_star.series_from_json": EXPORT,
    "lie_core.LieAlgebra.from_json": EXPORT,
    "lie_core.LieAlgebra.killing_form": BENCHMARK,
    "lie_core.centralizer": BENCHMARK,
    "lie_core.subspace_intersection": BENCHMARK,
    "linalg.solve_linear": BENCHMARK,
    "psd_builder.psd_spec_from_json": EXPORT,
    "psd_builder.match_iwasawa": BENCHMARK,
    "retract_pde.radial_reduce": BENCHMARK,
    "su1n_model.iwasawa_project": BENCHMARK,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions_and_names(tree) -> tuple:
    """(definitions, names) of a module tree.  definitions lists
    (qualified name, bare name, node, is a method) for each public
    module-level function and class and each public method of a public
    class; names lists (name, enclosing definition nodes, is an
    attribute) for every name and attribute read in the module."""
    definitions, names = [], []

    def visit(node, owners, public_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                public = not child.name.startswith("_")
                if public and (not owners or public_class):
                    prefix = f"{node.name}." if public_class else ""
                    definitions.append((prefix + child.name, child.name, child, public_class))
                is_class = isinstance(child, ast.ClassDef) and not owners
                visit(child, owners + (child,), is_class and public)
                continue
            if isinstance(child, ast.Name):
                names.append((child.id, owners, False))
            elif isinstance(child, ast.Attribute):
                names.append((child.attr, owners, True))
            visit(child, owners, public_class)

    visit(tree, (), False)
    return definitions, names


def uncalled(modules: dict) -> set:
    """The qualified names, module first, of the public definitions that
    no name read outside their own body refers to, a method only through
    an attribute read; modules maps each module name to its parsed tree."""
    definitions, names = [], []
    for module, tree in modules.items():
        defs, read = definitions_and_names(tree)
        definitions += [(f"{module}.{qual}", *rest) for qual, *rest in defs]
        names += read
    return {
        qual
        for qual, name, node, method in definitions
        if not any(
            n == name and (attr or not method) and node not in owners
            for n, owners, attr in names
        )
    }


def test_the_guard_flags_a_public_definition_without_a_caller():
    tree = ast.parse(
        "TABLE = {'x': used_by_table}\n"
        "def used_by_table(): pass\n"
        "def orphan(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def _private(): pass\n"
        "def caller(): return Box().method() + helper()\n"
        "def helper():\n"
        "    def inner(): pass\n"
        "    shadow = lambda x: x\n"
        "    return inner, shadow(1)\n"
        "class Box:\n"
        "    def method(self): pass\n"
        "    def unused(self): pass\n"
        "    def shadow(self): pass\n"
        "class _Hidden:\n"
        "    def hook(self): pass\n"
    )
    expected = {"m.orphan", "m.recursive", "m.caller", "m.Box.unused", "m.Box.shadow"}
    assert uncalled({"m": tree}) == expected


def test_every_public_definition_has_a_caller_or_a_reason():
    modules = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert uncalled(modules) == set(ALLOWLIST)
