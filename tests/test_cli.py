"""Tests for the command line interface.

Every command must print one deterministic JSON document on stdout
(timing goes to stderr) and use the exit code to report verification
results: 0 for success, 1 for a failed verification, 2 for usage
errors.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballquant import ball_quantization, ce_cohomology, psd_builder, retract_pde, su1n_model
from ballquant.ce_cohomology import Cochain
from ballquant.cli import BLOCKS_CEILING, COHOMOLOGY_CEILING, N_CEILING, ORDER_CEILING
from ballquant.cli import RETRACT_ORDER_CEILING, main
from ballquant.formal_star import CoefFn, NuSeries, series_from_json, series_to_json
from ballquant.lie_core import LieAlgebra
from ballquant.psd_builder import PsdSpec, psd_spec_from_json, psd_spec_to_json
from ballquant.retract_pde import (
    XiFn,
    radial_pde_residual,
    xifn_from_json,
    xifn_to_json,
)
from ballquant.scalars import LITERAL_LENGTH, GScalar, parse_frac


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_build_psd_deterministic_and_roundtrip(capsys):
    argv = ["build-psd", "--r", "2", "--blocks", "2,1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    spec = psd_spec_from_json(payload["spec"])
    assert psd_spec_to_json(spec) == payload["spec"]
    algebra = LieAlgebra.from_json(payload["algebra"])
    assert algebra.to_json() == payload["algebra"]
    assert payload["blocks"]["2"]["V"] == []
    assert payload["blocks"]["1"]["V"] == [3, 4]


def test_h2_command(capsys):
    code, out = run(capsys, ["h2", "--r", "2", "--blocks", "2,1"])
    assert code == 0
    assert json.loads(out)["h2"] == 1
    code, out = run(capsys, ["h2", "--su1n", "1"])
    assert code == 0
    assert json.loads(out)["h2"] == 0


def test_h2_requires_a_target(capsys):
    code, _ = run(capsys, ["h2"])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "qmm", "--N", "1", "--order", "-3"],
        ["verify", "--suite", "retract", "--N", "2", "--order", "-1"],
        ["retract-residual", "--order", "-1"],
    ],
    ids=["qmm-order", "retract-order", "residual-order"],
)
def test_bad_truncation_order_is_a_usage_error(capsys, argv):
    assert_usage_error(capsys, argv, "--order")


@pytest.mark.parametrize(
    "argv, source",
    [
        (["verify", "--suite", "qmm", "--N", "x"], "--N"),
        (["verify", "--suite", "nonsense"], "--suite"),
        ([], "command"),
        (["no-such-command"], "no-such-command"),
        (["su1n-export", "--bogus", "1"], "--bogus"),
    ],
    ids=["N-text", "suite-unknown", "no-command", "command-unknown", "option-unknown"],
)
def test_parser_usage_error_is_one_line(capsys, argv, source):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ballquant: error: ") and source in lines[0]


def assert_usage_error(capsys, argv, source):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and source in lines[0]


QMM = ["verify", "--suite", "qmm", "--N", "1"]
# a JSON number is a binary float, not the exact 1/10
THETA_FLOAT = '{"terms": [[0, 0, 0, 0, 0, 0.1, "0"]]}'
ADD_CONST = QMM + ["--mutate", "add-nu-const"]


@pytest.mark.parametrize(
    "argv, source",
    [
        (["verify", "--suite", "su1n", "--N", "0"], "--N"),
        (["su1n-export", "--N", "0"], "--N"),
        (["qmm-export", "--N", "-1"], "--N"),
        (["h2", "--su1n", "0"], "--su1n"),
        (QMM + ["--alpha", "1/0"], "--alpha"),
        (QMM + ["--alpha", "abc"], "--alpha"),
        (["qmm-export", "--alpha", "1/0"], "--alpha"),
        (ADD_CONST + ["--label", "H", "--value", "x"], "--value"),
        (ADD_CONST + ["--label", "bogus", "--value", "1"], "--label"),
        (ADD_CONST + ["--value", "1"], "--label"),
        (ADD_CONST + ["--label", "H"], "--value"),
        (["retract-residual", "--theta-json", "{bad"], "--theta-json"),
        (["retract-residual", "--theta-json", "{}"], "--theta-json"),
        (
            ["retract-residual", "--theta-json", '{"terms": [[0, 0, 0, 0, "x", "1", "0"]]}'],
            "--theta-json",
        ),
        (["h2", "--r", "2", "--blocks", "2,x"], "--blocks"),
        (["h2", "--r", "2", "--blocks", "2"], "--blocks"),
        (["build-psd", "--r", "1", "--blocks", "0"], "--blocks"),
        (["build-psd", "--r", "0", "--blocks", ""], "--r"),
        (["build-psd", "--r", "2", "--blocks", "1,,2"], "--blocks"),
        (["build-psd", "--r", "2", "--blocks", ",1,2"], "--blocks"),
        (["build-psd", "--r", "2", "--blocks", "1,2,"], "--blocks"),
        (["h2"], "h2 needs"),
        (["verify", "--suite", "su1n", "--N", "1", "--order", "-1"], "--order"),
        (["retract-residual", "--n", "1"], "--n"),
        (["verify", "--suite", "su1n", "--N", "1", "--mutate", "drop-nu2"], "--mutate"),
        (["verify", "--suite", "retract", "--N", "2", "--mutate", "drop-nu2"], "--mutate"),
        (
            ["verify", "--suite", "cocycle", "--N", "1", "--mutate", "add-nu-const"]
            + ["--label", "H", "--value", "1"],
            "--mutate",
        ),
        (QMM + ["--label", "H"], "--label"),
        (QMM + ["--value", "1"], "--value"),
        (QMM + ["--mutate", "drop-nu2", "--label", "H", "--value", "1"], "--label"),
        (["verify", "--suite", "su1n", "--N", "1", "--alpha", "1"], "--alpha"),
        (["verify", "--suite", "cocycle", "--N", "1", "--alpha", "1"], "--alpha"),
        (["verify", "--suite", "su1n", "--N", "1", "--pairs", "all"], "--pairs"),
        (["verify", "--suite", "retract", "--N", "2", "--pairs", "s"], "--pairs"),
        (["verify", "--suite", "cocycle", "--N", "1", "--pairs", "all"], "--pairs"),
        (["h2", "--su1n", "2", "--r", "1", "--blocks", "2"], "--su1n"),
        (["h2", "--su1n", "2", "--r", "1"], "--su1n"),
        (["h2", "--su1n", "2", "--blocks", "2"], "--su1n"),
        (["verify", "--suite", "su1n", "--N", "1", "--order", "5"], "--order"),
        (["verify", "--suite", "cocycle", "--N", "1", "--order", "5"], "--order"),
        (["verify", "--suite", "su1n", "--order", "5000"], "--order applies to --suite qmm"),
        (
            ["verify", "--suite", "retract", "--N", "1"],
            "--N must be at least 2 for --suite retract",
        ),
        (["retract-residual", "--n", "2", "--theta-json", THETA_FLOAT], "--theta-json"),
        (
            ["retract-residual", "--theta-json", '{"terms": [[true, 0, 0, 0, 0, "1", "0"]]}'],
            "--theta-json",
        ),
        (["retract-residual", "--theta-json", '{"terms": [[0, 0, 0, 0, 0, "1"]]}'], "--theta-json"),
        (
            ["retract-residual", "--n", "2", "--order", "2", "--theta-json"]
            + ['{"terms": [[0, 0, 0, 1, -1, "1", "0"]]}'],
            "--theta-json",
        ),
        (
            ["retract-residual", "--theta-json", '{"terms": [[0,0,0,1,-1,"1","0"]]}'],
            '--theta-json must look like {"terms": [[k, m, n, h, j, re, im]]}: '
            "XiFn exponents must be five ints, the nu power >= 0, got [0, 0, 0, 1, -1]",
        ),
        (
            ["retract-residual", "--n", "2", "--theta-json", '{"terms":[[0,0,0,0,0,"1","0",5]]}'],
            '--theta-json must look like {"terms": [[k, m, n, h, j, re, im]]}: '
            "an XiFn term must have 7 items, got [0, 0, 0, 0, 0, '1', '0', 5]",
        ),
    ],
    ids=[
        "verify-N", "export-N", "qmm-export-N", "h2-su1n", "alpha-zero-denominator",
        "alpha-text", "export-alpha", "value-text", "label-unknown", "label-missing",
        "value-missing", "theta-syntax", "theta-no-terms", "theta-exponent", "blocks-text",
        "blocks-count", "blocks-zero", "r-zero", "blocks-empty-inner", "blocks-empty-first",
        "blocks-empty-last", "h2-no-target", "su1n-order",
        "retract-n", "mutate-su1n", "mutate-retract", "mutate-cocycle", "label-unmutated",
        "value-unmutated", "label-drop-nu2", "alpha-su1n", "alpha-cocycle", "pairs-su1n",
        "pairs-retract", "pairs-cocycle", "h2-su1n-and-blocks", "h2-su1n-and-r",
        "h2-su1n-and-blocks-only", "order-su1n", "order-cocycle", "order-su1n-past-ceiling",
        "retract-N1", "theta-float",
        "theta-bool-exponent", "theta-short-term", "theta-negative-nu", "theta-reason",
        "theta-long-term",
    ],
)
def test_bad_option_is_a_usage_error(capsys, argv, source):
    assert_usage_error(capsys, argv, source)


@pytest.mark.parametrize("big", ["1e999999999", "1e-999999999"])
@pytest.mark.parametrize(
    "argv, source",
    [
        (QMM + ["--alpha"], "--alpha"),
        (ADD_CONST + ["--label", "H", "--value"], "--value"),
        (["retract-residual", "--theta-json"], "--theta-json"),
    ],
    ids=["alpha", "value", "theta"],
)
def test_huge_exponent_is_a_usage_error_at_once(capsys, argv, source, big):
    """An exponent that would make Fraction compute 10**999999999 is
    refused before any work: exit 2 within a second, not a hang."""
    if source == "--theta-json":
        big = json.dumps({"terms": [[0, 0, 0, 0, 0, big, "0"]]})
    start = time.perf_counter()
    assert_usage_error(capsys, argv + [big], source)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv, source",
    [
        (QMM + ["--alpha"], "--alpha"),
        (ADD_CONST + ["--label", "H", "--value"], "--value"),
        (["retract-residual", "--theta-json"], "--theta-json"),
    ],
    ids=["alpha", "value", "theta"],
)
def test_a_literal_past_the_length_bound_is_a_usage_error_at_once(capsys, argv, source):
    """A rational of more than LITERAL_LENGTH characters is refused before
    any work, exit 2 within a second; one of LITERAL_LENGTH digits is read."""
    long = "7" * (LITERAL_LENGTH + 1)
    if source == "--theta-json":
        long = json.dumps({"terms": [[0, 0, 0, 0, 0, long, "0"]]})
    start = time.perf_counter()
    assert_usage_error(capsys, argv + [long], source)
    assert time.perf_counter() - start < 1
    assert parse_frac("7" * LITERAL_LENGTH) == (10**LITERAL_LENGTH - 1) // 9 * 7


@pytest.mark.parametrize(
    "argv, source",
    [
        (["verify", "--suite", "qmm", "--N", "100000"], "--N must be at most 30,"),
        (["verify", "--suite", "su1n", "--N", "9" * 23], "--N must be at most 30,"),
        (["verify", "--suite", "retract", "--N", "31"], "--N must be at most 30,"),
        (["qmm-export", "--N", "31"], "--N must be at most 30,"),
        (["su1n-export", "--N", "31"], "--N must be at most 30,"),
        (["retract-residual", "--n", "31"], "--n must be at most 30,"),
        (["verify", "--suite", "cocycle", "--N", "13"], "--N must be at most 12 for cohomology"),
        (["h2", "--su1n", "13"], "--su1n must be at most 12 for cohomology"),
        (QMM[:-1] + ["100000", "--mutate", "add-nu-const", "--label", "H", "--value", "1"], "30"),
    ],
    ids=[
        "qmm", "su1n-huge", "retract", "qmm-export", "su1n-export", "retract-residual",
        "cocycle", "h2", "qmm-label",
    ],
)
def test_an_n_past_its_ceiling_is_a_usage_error_at_once(capsys, argv, source):
    """N_CEILING bounds --N and --n, COHOMOLOGY_CEILING the N of h2 and of
    the cocycle suite: past it the command exits 2 before any build (or
    any label list), within a second."""
    start = time.perf_counter()
    assert_usage_error(capsys, argv, source)
    assert time.perf_counter() - start < 1
    assert (N_CEILING, COHOMOLOGY_CEILING) == (30, 12)


@pytest.mark.parametrize(
    "argv",
    [
        ["build-psd", "--r", "1", "--blocks", "251"],
        ["build-psd", "--r", "2", "--blocks", "200,51"],
        ["build-psd", "--r", "1", "--blocks", "9" * 4000],
        ["build-psd", "--r", "2", "--blocks", f"{'9' * 4300},{'9' * 4300}"],
        ["h2", "--r", "1", "--blocks", "1500"],
        ["h2", "--r", "3", "--blocks", "100,100,51"],
    ],
    ids=["build-psd", "build-psd-sum", "build-psd-huge", "build-psd-huge-sum", "h2", "h2-sum"],
)
def test_blocks_past_their_ceiling_are_a_usage_error_at_once(capsys, argv):
    """BLOCKS_CEILING bounds the sum of the block dimensions of build-psd
    and h2: past it the command exits 2 before any build, within a second
    (at the previous head, --blocks 400 took 9 s and 1500 over a minute)."""
    start = time.perf_counter()
    assert_usage_error(capsys, argv, f"--blocks must sum to at most {BLOCKS_CEILING}")
    assert time.perf_counter() - start < 1
    assert BLOCKS_CEILING == 250


def test_the_blocks_ceiling_itself_is_accepted(capsys, monkeypatch):
    """A sum at the ceiling reaches the build, stood in for by a small
    one: the real build there takes seconds."""
    built, build = [], psd_builder.build_psd
    small = lambda spec: built.append(spec.n) or build(PsdSpec(1, [1]))
    monkeypatch.setattr(psd_builder, "build_psd", small)
    code, out = run(capsys, ["build-psd", "--r", "2", "--blocks", f"{BLOCKS_CEILING - 1},1"])
    assert code == 0 and built == [[BLOCKS_CEILING - 1, 1]]
    assert json.loads(out)["spec"]["n"] == [BLOCKS_CEILING - 1, 1]


@pytest.mark.parametrize(
    "argv, source",
    [
        (["verify", "--suite", "retract", "--N", "2", "--order", "10000"], "at most 7 for --suite"),
        (["retract-residual", "--n", "2", "--order", "100000000"], "--order must be at most 1000,"),
        (["retract-residual", "--n", "3", "--order", "100000"], "--order must be at most 1000,"),
        (["verify", "--suite", "qmm", "--N", "2", "--order", "100000000"], "at most 1000,"),
        (["verify", "--suite", "retract", "--N", "2", "--order", "8"], "at most 7 for --suite"),
        (["verify", "--suite", "qmm", "--N", "2", "--order", "1001"], "at most 1000,"),
    ],
    ids=["retract", "residual-huge", "residual", "qmm", "retract-next", "qmm-next"],
)
def test_an_order_past_its_ceiling_is_a_usage_error_at_once(capsys, argv, source):
    """ORDER_CEILING bounds --order, RETRACT_ORDER_CEILING that of the
    retract suite: past it the command exits 2 before any work, within a
    second.  Unbounded, the first four ended in MemoryError or ran for
    more than 20 s (verify_qmm takes (order + 1)! before any pair)."""
    start = time.perf_counter()
    assert_usage_error(capsys, argv, source)
    assert time.perf_counter() - start < 1
    assert (ORDER_CEILING, RETRACT_ORDER_CEILING) == (1000, 7)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "qmm", "--N", "1", "--order", str(ORDER_CEILING)],
        ["verify", "--suite", "retract", "--N", "2", "--order", str(RETRACT_ORDER_CEILING)],
        ["retract-residual", "--n", "2", "--order", str(ORDER_CEILING)],
    ],
    ids=["qmm", "retract", "residual"],
)
def test_the_order_ceiling_itself_is_accepted(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)


def test_the_ceiling_itself_is_accepted(capsys):
    """The ceiling is a value the commands take; retract-residual, whose
    cost does not grow with n, runs there."""
    code, out = run(capsys, ["retract-residual", "--n", str(N_CEILING)])
    assert code == 0 and json.loads(out)["n"] == N_CEILING


def read_frac(s: str) -> F:
    """A rational written "n/d", its digits read 600 at a time, so that
    one past the digit limit of int() reads back too."""

    def read(digits: str) -> int:
        n = 0
        for i in range(0, len(digits), 600):
            n = n * 10 ** len(digits[i : i + 600]) + int(digits[i : i + 600])
        return n

    num, den = s.split("/")
    return F(-read(num[1:]) if num.startswith("-") else read(num), read(den))


def rationals(node) -> list:
    """Every "n/d" string of a JSON document, in document order."""
    if isinstance(node, dict):
        return [s for key in sorted(node) for s in rationals(node[key])]
    if isinstance(node, list):
        return [s for x in node for s in rationals(x)]
    return [node] if isinstance(node, str) and "/" in node else []


# A rational with more digits than str(int) writes (4300 by default) is
# written out whole: exit 0, never 1 with a traceback.
def test_qmm_export_writes_an_alpha_past_the_digit_limit(capsys):
    code, out = run(capsys, ["qmm-export", "--N", "1", "--alpha", "1e4300"])
    assert code == 0 and read_frac(json.loads(out)["alpha"]) == 10**4300


def test_qmm_export_writes_a_squared_alpha_past_the_digit_limit(capsys):
    """alpha = 10^2500 is within any bound on the digits of an input, but
    the sE moment holds alpha^2."""
    code, out = run(capsys, ["qmm-export", "--N", "2", "--alpha", "1e2500"])
    terms = json.loads(out)["moments"][-1]["coeffs"][0]["terms"]
    assert code == 0 and [read_frac(c) for *key, c in terms if key == [2, [0, 0], 0, 0]] == [
        10**5000
    ]


def test_qmm_export_past_the_digit_limit_loads_back(capsys):
    """Every moment of an export whose sE moment holds alpha^2 = 10^5000
    loads back through series_from_json and writes the same document."""
    code, out = run(capsys, ["qmm-export", "--N", "1", "--alpha", "1e2500"])
    moments = json.loads(out)["moments"]
    assert code == 0 and [series_to_json(series_from_json(m)) for m in moments] == moments
    assert series_from_json(moments[-1]).coeffs[0].decoded()[(2, (), 0, 0)] == 10**5000


def test_retract_residual_writes_a_theta_past_the_digit_limit(capsys):
    """The residual is linear in theta: theta = 10^4300 scales each
    rational of the residual of theta = 1."""
    code, small = run(capsys, ["retract-residual", "--n", "2"])
    theta = '{"terms": [[0, 0, 0, 0, 0, "1e4300", "0/1"]]}'
    big_code, big = run(capsys, ["retract-residual", "--n", "2", "--theta-json", theta])
    assert code == big_code == 0
    assert [read_frac(s) for s in rationals(json.loads(big))] == [
        read_frac(s) * 10**4300 for s in rationals(json.loads(small))
    ]


# Any text given to an option that takes a document or a list: the
# command exits 0, or 2 with one line on stderr; never 1, never raises.
ANY_TEXT = settings(derandomize=True, max_examples=100, deadline=None)


def assert_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1


@ANY_TEXT
@given(st.text())
@example('{"terms": [[0, 0, 0, 0, 0, "1/1", "0/1"]]}')
@example('{"terms": [[0, 0, 0, 0, 0, "1", "0"], 5]}')
@example('{"term": []}')
@example("[" * 100000)
@example("-1")
def test_any_theta_json_exits_0_or_2(text):
    assert_exits_0_or_2(["retract-residual", f"--theta-json={text}"])


@ANY_TEXT
@given(st.text())
@example("2,1")
@example("1,,2")
@example("\u0663,1")
@example("9" * 5000 + ",1")
@example("9" * 40 + ",1")
@example("-1,2")
def test_any_blocks_exits_0_or_2(text):
    assert_exits_0_or_2(["build-psd", "--r", "2", f"--blocks={text}"])


def test_su1n_export(capsys):
    code, out = run(capsys, ["su1n-export", "--N", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 1
    assert payload["algebra"]["dim"] == 3


def test_verify_su1n(capsys):
    code, out = run(capsys, ["verify", "--suite", "su1n", "--N", "2"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_qmm_ok_at_given_order(capsys):
    code, out = run(
        capsys, ["verify", "--suite", "qmm", "--N", "1", "--alpha", "1", "--order", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["order"] == 4 and payload["checked"] == 3


def test_verify_qmm_mutation_fails(capsys):
    code, out = run(
        capsys,
        [
            "verify",
            "--suite",
            "qmm",
            "--N",
            "2",
            "--alpha",
            "1",
            "--order",
            "4",
            "--mutate",
            "drop-nu2",
        ],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"]


def test_verify_qmm_shifted_on_a_keeps_s_pairs(capsys):
    code, out = run(
        capsys,
        [
            "verify",
            "--suite",
            "qmm",
            "--N",
            "2",
            "--alpha",
            "1",
            "--order",
            "4",
            "--pairs",
            "s",
            "--mutate",
            "add-nu-const",
            "--label",
            "H",
            "--value",
            "1/2",
        ],
    )
    assert code == 0
    assert json.loads(out)["checked"] == 6


def test_verify_retract(capsys):
    code, out = run(capsys, ["verify", "--suite", "retract", "--N", "2", "--order", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["dim_w"] == 7 and payload["dim_filled"] == 8


def test_verify_cocycle(capsys):
    code, out = run(capsys, ["verify", "--suite", "cocycle", "--N", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["h2"] == 0 and payload["invariant_dim"] == 1
    assert payload["primitive_ok"] is True


def test_retract_residual_default_theta(capsys):
    code, out = run(capsys, ["retract-residual", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    expected = XiFn(
        {
            (1, 2, 1, 1, 0): GScalar.of(0, 1),
            (1, 2, 1, 0, 0): GScalar.of(0, 1),
            (1, 0, 1, 0, 0): GScalar.of(0, 2),
            (0, 0, 2, 0, 0): GScalar.of(-2),
        }
    )
    assert xifn_from_json(payload["wv"]).sub(expected).is_zero()


def test_retract_residual_theta_json(capsys):
    rng = random.Random(5)
    theta = XiFn(
        {
            (rng.randint(-1, 1), rng.randint(0, 2), rng.randint(0, 1), 1, 0): GScalar.of(
                2, -1
            ),
            (0, 2, 1, 0, 0): GScalar.of(1, 1),
        }
    )
    blob = json.dumps(xifn_to_json(theta))
    code, out = run(
        capsys, ["retract-residual", "--n", "2", "--order", "2", "--theta-json", blob]
    )
    assert code == 0
    payload = json.loads(out)
    wv, om = radial_pde_residual(theta, 2, order=2)
    assert xifn_from_json(payload["wv"]).sub(wv).is_zero()
    assert xifn_from_json(payload["omega"]).sub(om).is_zero()


def test_retract_residual_sums_repeated_terms(capsys):
    def residual(terms):
        code, out = run(capsys, ["retract-residual", "--n", "2", "--theta-json", terms])
        assert code == 0
        return out

    once = residual('{"terms": [[0, 0, 0, 0, 0, "2", "0"]]}')
    assert residual('{"terms": [[0, 0, 0, 0, 0, "1", "0"], [0, 0, 0, 0, 0, "1", "0"]]}') == once
    assert once != residual('{"terms": [[0, 0, 0, 0, 0, "1", "0"]]}')
    # "0.1" as a string is the exact 1/10: twenty of them are the constant 2
    assert residual(json.dumps({"terms": [[0, 0, 0, 0, 0, "0.1", "0"]] * 20})) == once


def test_qmm_export_deterministic(capsys):
    argv = ["qmm-export", "--N", "1", "--alpha", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["labels"] == ["H", "E", "sE"]
    assert json.dumps(payload, sort_keys=True) + "\n" == out1


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_readme_commands_match_recorded_fingerprints(capsys):
    """Every README command recorded by the benchmark prints the same
    bytes and exits with the same code, run in-process."""
    commands = json.loads(EXPECTED.read_text())["cli"]
    assert commands
    for cmd in commands:
        code, out = run(capsys, list(cmd["argv"]))
        assert code == cmd["exit"], cmd["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == cmd["sha256"], cmd["argv"]


RETRACT = ["verify", "--suite", "retract", "--N", "2", "--order", "2"]


def assert_failed_suite(capsys, argv, key):
    code, out = run(capsys, argv)
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False and payload[key] is False
    return payload


def test_verify_retract_reports_constants_not_annihilated(capsys, monkeypatch):
    monkeypatch.setattr(retract_pde, "apply_operator", lambda op, theta, order: theta)
    payload = assert_failed_suite(capsys, RETRACT, "constants_annihilated")
    assert payload["m_fields_match"] is True


def test_verify_retract_reports_a_wrong_m_field(capsys, monkeypatch):
    # the table is built before the field is doubled, so only the suite's
    # own comparison reads the doubled one
    table = ball_quantization.build_qmm(2)
    monkeypatch.setattr(ball_quantization, "build_qmm", lambda N, alpha: table)
    real = ball_quantization.fundamental_field
    monkeypatch.setattr(
        ball_quantization,
        "fundamental_field",
        lambda chart, y: [c.scale(2) for c in real(chart, y)],
    )
    payload = assert_failed_suite(capsys, RETRACT, "m_fields_match")
    assert payload["constants_annihilated"] is True


def test_verify_retract_reports_an_extra_key_on_an_m_operator(capsys, monkeypatch):
    """Every unit key of each m operator still matches its field, but a
    planted second-order key makes the operator differ from the field."""
    real = retract_pde.retract_operator

    def planted(table, x, order=None):
        key, one = (0, 2) + (0,) * table.chart.nv, CoefFn.const(table.chart.nv, F(1))
        return {**real(table, x, order=order), key: NuSeries.from_coef(one, order)}

    monkeypatch.setattr(retract_pde, "retract_operator", planted)
    payload = assert_failed_suite(capsys, RETRACT, "m_fields_match")
    assert payload["constants_annihilated"] is True


def test_verify_cocycle_reports_a_wrong_primitive(capsys, monkeypatch):
    monkeypatch.setattr(
        ce_cohomology,
        "coboundary_primitive_roots",
        lambda model, c: Cochain(1, c.dim, [F(0)] * c.dim),
    )
    cocycle = ["verify", "--suite", "cocycle", "--N", "2"]
    payload = assert_failed_suite(capsys, cocycle, "primitive_ok")
    assert payload["h2"] == 0 and payload["invariant_dim"] == 1


@pytest.mark.parametrize("N", range(1, 6))
def test_a_model_with_an_empty_stored_table_prints_the_same_reports(N, capsys, monkeypatch):
    """The su1n, qmm and retract suites and qmm-export read every bracket
    off the basis matrices: on a fresh model whose kept structure table is
    planted empty they print the bytes, with the exit codes, of the real
    model."""
    commands = [["verify", "--suite", suite, "--N", str(N)] for suite in ("su1n", "qmm", "retract")]
    commands.append(["qmm-export", "--N", str(N)])
    want = [run(capsys, argv) for argv in commands]
    blank = su1n_model.build_su1n.__wrapped__(N)
    vars(blank)["algebra"] = LieAlgebra.written(su1n_model.build_su1n(N).algebra.labels, {})
    for module in (su1n_model, ball_quantization):
        monkeypatch.setattr(module, "build_su1n", lambda n: blank)
    assert [run(capsys, argv) for argv in commands] == want
    assert blank in su1n_model._ADAPTED and blank.algebra.structure == {}
