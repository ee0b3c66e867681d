"""Tests for the command line interface.

Every command must print one deterministic JSON document on stdout
(timing goes to stderr) and use the exit code to report verification
results: 0 for success, 1 for a failed verification, 2 for usage
errors.
"""
from __future__ import annotations

import json
import random

import pytest

from ballquant.cli import main
from ballquant.lie_core import LieAlgebra
from ballquant.psd_builder import psd_spec_from_json, psd_spec_to_json
from ballquant.retract_pde import (
    XiFn,
    radial_pde_residual,
    xifn_from_json,
    xifn_to_json,
)
from ballquant.scalars import GScalar


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
    spec = psd_spec_from_json(json.dumps(payload["spec"], sort_keys=True))
    assert json.loads(psd_spec_to_json(spec)) == payload["spec"]
    algebra = LieAlgebra.from_json(json.dumps(payload["algebra"], sort_keys=True))
    assert json.loads(algebra.to_json()) == payload["algebra"]
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
    "argv, env, source",
    [
        (["verify", "--suite", "qmm", "--N", "1", "--order", "-3"], None, "order argument"),
        (["verify", "--suite", "retract", "--N", "2", "--order", "-1"], None, "order argument"),
        (["retract-residual", "--order", "-1"], None, "order argument"),
        (["verify", "--suite", "qmm", "--N", "1"], "x", "BALLQUANT_TRUNCATION_ORDER"),
        (["verify", "--suite", "qmm", "--N", "1"], "-2", "BALLQUANT_TRUNCATION_ORDER"),
    ],
    ids=["qmm-order", "retract-order", "residual-order", "env-text", "env-negative"],
)
def test_bad_truncation_order_is_a_usage_error(capsys, monkeypatch, argv, env, source):
    if env is not None:
        monkeypatch.setenv("BALLQUANT_TRUNCATION_ORDER", env)
    assert_usage_error(capsys, argv, source)


def assert_usage_error(capsys, argv, source):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and source in lines[0]


QMM = ["verify", "--suite", "qmm", "--N", "1"]
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
        (["h2"], "h2 needs"),
        (["verify", "--suite", "su1n", "--N", "1", "--order", "-1"], "order argument"),
    ],
    ids=[
        "verify-N", "export-N", "qmm-export-N", "h2-su1n", "alpha-zero-denominator",
        "alpha-text", "export-alpha", "value-text", "label-unknown", "label-missing",
        "value-missing", "theta-syntax", "theta-no-terms", "theta-exponent", "blocks-text",
        "blocks-count", "blocks-zero", "r-zero", "h2-no-target", "su1n-order",
    ],
)
def test_bad_option_is_a_usage_error(capsys, argv, source):
    assert_usage_error(capsys, argv, source)


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


def test_verify_qmm_ok_and_env_order(capsys, monkeypatch):
    code, out = run(
        capsys, ["verify", "--suite", "qmm", "--N", "1", "--alpha", "1", "--order", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["order"] == 4 and payload["checked"] == 3
    monkeypatch.setenv("BALLQUANT_TRUNCATION_ORDER", "3")
    code, out = run(capsys, ["verify", "--suite", "qmm", "--N", "1", "--alpha", "1"])
    assert code == 0
    assert json.loads(out)["order"] == 3


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


def test_qmm_export_deterministic(capsys):
    argv = ["qmm-export", "--N", "1", "--alpha", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["labels"] == ["H", "E", "sE"]
    assert json.dumps(payload, sort_keys=True) + "\n" == out1
