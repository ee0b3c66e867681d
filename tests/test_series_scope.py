"""Only formal_star knows how a NuSeries stores its powers.

A NuSeries keeps only its nonzero powers, a map from power to CoefFn.
Its dense form, order + 1 coefficients, is read by the JSON codec of
formal_star alone (NuSeries.coeffs).  Every other module goes through
NuSum and the series methods, so each module of the package but
formal_star is parsed, and none may read a ``.coeffs`` attribute or
build a NuSeries from a list.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
OWNER = "formal_star.py"


def _name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _is_list(node) -> bool:
    """A list display, comprehension, starred argument, list() call, or a
    sum or product with one of them as an operand."""
    if isinstance(node, ast.BinOp):
        return _is_list(node.left) or _is_list(node.right)
    if isinstance(node, ast.Call):
        return _name(node.func) == "list"
    return isinstance(node, (ast.List, ast.ListComp, ast.Starred))


def violations(tree) -> list:
    """(line, what) of each ``.coeffs`` read and each NuSeries call given
    a list in a module tree, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            found.append((node.lineno, "reads .coeffs"))
        elif isinstance(node, ast.Call) and _name(node.func) == "NuSeries":
            if any(_is_list(a) for a in (*node.args, *(k.value for k in node.keywords))):
                found.append((node.lineno, "builds a NuSeries from a list"))
    return sorted(found)


def module_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}


def test_the_guard_sees_every_dense_read_and_list_built_series():
    tree = ast.parse(
        "first = s.coeffs[0]\n"
        "a = NuSeries(order, [f, g])\n"
        "b = fs.NuSeries(nv, order, {0: f})\n"
        "c = NuSeries(order, [f] + [zero] * order)\n"
        "d = NuSeries(order, coeffs=[h for h in hs], exact=True)\n"
        "e = NuSeries(nv, order + 1, dict(terms))\n"
        "g = NuSeries(order, list(hs))\n"
        "h = NuSeries(*args)\n"
    )
    assert violations(tree) == [
        (1, "reads .coeffs"),
        (2, "builds a NuSeries from a list"),
        (4, "builds a NuSeries from a list"),
        (5, "builds a NuSeries from a list"),
        (7, "builds a NuSeries from a list"),
        (8, "builds a NuSeries from a list"),
    ]


def test_only_formal_star_reads_or_builds_the_dense_form():
    trees = module_trees()
    assert violations(trees[OWNER])  # the JSON codec reads it there
    assert {name: violations(tree) for name, tree in trees.items() if name != OWNER} == {
        name: [] for name in trees if name != OWNER
    }
