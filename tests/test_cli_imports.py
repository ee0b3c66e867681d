"""Each CLI command loads only the package modules it runs.

Every README command (the list the benchmark fingerprints) runs in a
fresh interpreter, which then names the ballquant modules it loaded on
its last stderr line.  A module that a command does not run must not
be among them, so a later top-level import in cli.py cannot quietly
make every command pay for the whole package again.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli"]

CHILD = """
import sys
from ballquant.cli import main
code = main(sys.argv[1:])
sys.stderr.write(" ".join(sorted(m for m in sys.modules if m.startswith("ballquant"))) + "\\n")
sys.exit(code)
"""

BEYOND_MODEL = {"psd_builder", "ce_cohomology", "formal_star", "ball_quantization", "retract_pde"}
NO_STAR = {"formal_star", "ball_quantization", "retract_pde"}
NO_COHOMOLOGY = {"ce_cohomology", "psd_builder"}
NO_CHART = {"formal_star", "ball_quantization", "su1n_model", "lie_core", "linalg"}
# The modules a command must not load, by subcommand (h2 by the algebra
# it reads) and verify suite
EXCLUDED = {
    "build-psd": BEYOND_MODEL - {"psd_builder"} | {"su1n_model"},
    "su1n-export": BEYOND_MODEL,
    "verify su1n": BEYOND_MODEL,
    "h2 --su1n": NO_STAR | {"psd_builder"},
    "h2 --r": NO_STAR | {"su1n_model"},
    "verify cocycle": NO_STAR | {"psd_builder"},
    "verify qmm": NO_COHOMOLOGY | {"retract_pde"},
    "qmm-export": NO_COHOMOLOGY | {"retract_pde"},
    "verify retract": NO_COHOMOLOGY,
    "retract-residual": NO_COHOMOLOGY | NO_CHART,
}


def _run(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, check=False
    )


def _loaded(stderr: str) -> set:
    return {m.removeprefix("ballquant.") for m in stderr.splitlines()[-1].split()}


def _key(argv: list) -> str:
    if argv[0] == "verify":
        return f"verify {argv[argv.index('--suite') + 1]}"
    if argv[0] == "h2":
        return "h2 --r" if "--r" in argv else "h2 --su1n"
    return argv[0]


def test_import_alone_loads_only_scalars():
    proc = _run(["-c", "import sys, ballquant.cli; sys.stderr.write(' '.join(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    assert {m for m in proc.stderr.split() if m.startswith("ballquant")} == {
        "ballquant",
        "ballquant.cli",
        "ballquant.scalars",
    }


def test_every_readme_command_has_a_module_set():
    assert {_key(cmd["argv"]) for cmd in COMMANDS} == set(EXCLUDED)


@pytest.mark.parametrize("cmd", COMMANDS, ids=[" ".join(c["argv"]) for c in COMMANDS])
def test_command_loads_only_what_it_runs(cmd):
    proc = _run(["-c", CHILD, *cmd["argv"]])
    assert proc.returncode == cmd["exit"], proc.stderr
    loaded = _loaded(proc.stderr)
    assert "cli" in loaded
    assert not loaded & EXCLUDED[_key(cmd["argv"])]
