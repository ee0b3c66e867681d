"""No module of the package reads the process environment.

What a run has checked is fixed by its call: the truncation order comes
only from the ``order`` argument or ``--order``, and the CLI documents
every other input as an option.  A default read from an environment
variable would change what a ``verify`` run shows without showing up in
its command line, so every module of the package is parsed and none may
name ``os.environ``, ``os.getenv`` or their bytes forms, by attribute,
by name or by ``from os import``.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ballquant"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree) -> list:
    """The environment names that a module tree reads, in walk order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names += [alias.name for alias in node.names]
    return [name for name in names if name in ENVIRONMENT]


def test_the_guard_sees_every_form():
    tree = ast.parse(
        "import os\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "from os import environb, getenvb\n"
        "c = environb\n"
    )
    assert sorted(environment_reads(tree)) == sorted(
        ["environ", "getenv", "environb", "getenvb", "environb"]
    )
    assert environment_reads(ast.parse("environment = {}\nos.path.join('a')\n")) == []


def test_no_module_reads_the_environment():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "scalars.py" in modules
    reads = {
        path.name: found
        for path in modules
        if (found := environment_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert reads == {}
