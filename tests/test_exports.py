"""Exporters hand out fresh plain data.

Every ``*_to_json`` returns dicts, lists, strings, ints and bools only,
built anew on each call: a caller that edits what it got back must not
reach the model, algebra, spec or series it came from.
"""
from __future__ import annotations

import copy
import random
from fractions import Fraction as F

import pytest

from ballquant.ball_quantization import build_qmm, qmm_table_to_json
from ballquant.ce_cohomology import Cochain, cochain_to_json, delta, random_two_cochain
from ballquant.formal_star import CoefFn, NuSeries, coef_to_json, series_to_json
from ballquant.psd_builder import PsdSpec, build_psd, psd_spec_to_json
from ballquant.retract_pde import XiFn, xifn_to_json
from ballquant.scalars import GScalar
from ballquant.su1n_model import build_su1n, model_to_json

SPEC = PsdSpec(2, [2, 1], {(1, 2): {"H": [[F(1), F(0)], [F(0), F(-1)]]}})


def _two_cochain():
    return random_two_cochain(build_psd(SPEC).algebra.dim, random.Random(2))


def _coef():
    return CoefFn.monomial(2, 1, (1, 0), 0, 2, F(3, 4)).add(CoefFn.const(2, F(-1)))


# name -> (exporter, a function building the object it exports)
EXPORTS = {
    "algebra": (lambda g: g.to_json(), lambda: build_psd(SPEC).algebra),
    "psd-spec": (psd_spec_to_json, lambda: SPEC),
    "su1n-model": (model_to_json, lambda: build_su1n(2)),
    "qmm-table": (qmm_table_to_json, lambda: build_qmm(1)),
    "coef": (coef_to_json, _coef),
    "series": (series_to_json, lambda: NuSeries.from_coef(_coef(), 2)),
    "xifn": (xifn_to_json, lambda: XiFn({(1, -2, 0, 1, 2): GScalar.of(1, -1)})),
    "cochain-1": (cochain_to_json, lambda: Cochain(1, 3, [F(1), F(0), F(-2)])),
    "cochain-2": (cochain_to_json, _two_cochain),
    "cochain-3": (cochain_to_json, lambda: delta(build_psd(SPEC).algebra, _two_cochain())),
}


def _scribble(obj) -> int:
    """Append to every list and add a key to every dict inside obj; return
    how many containers were touched."""
    touched = 0
    if isinstance(obj, list):
        for item in obj:
            touched += _scribble(item)
        obj.append("scribbled")
        return touched + 1
    if isinstance(obj, dict):
        for value in obj.values():
            touched += _scribble(value)
        obj["scribbled"] = True
        return touched + 1
    assert isinstance(obj, (str, int)), f"not plain JSON data: {obj!r}"
    return 0


@pytest.mark.parametrize("name", EXPORTS)
def test_editing_an_export_leaves_the_next_one_unchanged(name):
    export, build = EXPORTS[name]
    obj = build()
    first = export(obj)
    before = copy.deepcopy(first)
    assert _scribble(first) > 1
    assert export(obj) == before
