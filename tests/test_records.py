"""The package's record classes (scalars.Record).

Records stand in for dataclasses, so these tests pin the behaviour the
package and its callers read from them: construction by position or
keyword with the declared defaults, a fresh dict for every instance
that defaults one, field-wise equality within one class only, frozen
records that refuse to change, identity equality where the model
caches rely on it, replace, and the dataclass-style repr that error
messages print.  Record is the one freeze mechanism: no other class of
the package defines __setattr__ or __delattr__, and every object that a
cache shares is a frozen record.
"""
from __future__ import annotations

import ast
import gc
import weakref
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest

from ballquant.ball_quantization import BallChart, QmmReport, build_chart, build_qmm, verify_qmm
from ballquant.formal_star import CoefFn, NuSeries, key_layout
from ballquant.lie_core import CheckReport
from ballquant.psd_builder import PsdSpec, build_psd
from ballquant.retract_pde import ClosureReport, XiFn, _radial_table, radial_pde_residual
from ballquant.scalars import GScalar, Record
from ballquant.su1n_model import RootDatum, Su1nModel, build_su1n


class Point(Record):
    x: int
    y: int = 0


class Pin(Record, frozen=True):
    x: int

    @cached_property
    def double(self) -> int:
        return 2 * self.x


def test_fields_are_the_class_annotations_in_order():
    assert Point._fields == ("x", "y")
    assert CoefFn._fields == ("nv", "terms")
    assert NuSeries._fields == ("nv", "order", "terms", "exact")
    assert PsdSpec._fields == ("r", "n", "cross_actions")
    assert QmmReport._fields == ("ok", "order", "exact", "checked", "failures")
    assert Su1nModel._fields[:2] == ("N", "sigma_diagonal") and len(Su1nModel._fields) == 12
    fields = ("model", "H", "fs", "E", "nv", "omega", "m_basis", "basis", "frame")
    assert BallChart._fields == fields


def test_no_field_of_the_model_or_the_chart_is_a_dense_square_table():
    """The model and the chart hold sparse vectors and maps: no field of
    them, or of a record they hold, is a dense dim x dim table."""
    chart = build_chart(6)
    dim = chart.model.algebra.dim
    rows = lambda v, n: isinstance(v, (list, tuple)) and len(v) == n
    records, seen = [chart], 0
    while records:
        record = records.pop()
        for name, value in record._items():
            seen += 1
            assert not (rows(value, dim) and all(rows(r, dim) for r in value)), name
            inner = value if isinstance(value, (list, tuple)) else (value,)
            records += [v for v in inner if isinstance(v, Record)]
    assert seen > len(BallChart._fields) + len(Su1nModel._fields)


def test_construction_by_position_or_keyword():
    assert vars(Point(1, 2)) == vars(Point(y=2, x=1)) == vars(Point(1, y=2)) == {"x": 1, "y": 2}
    assert vars(Point(1)) == {"x": 1, "y": 0}
    assert vars(CheckReport(True, 3, [])) == vars(CheckReport(ok=True, checked=3, failures=[]))
    assert NuSeries(2, 1, {}).exact is True and NuSeries(2, 1, {}, False).exact is False
    assert CoefFn(nv=2, terms={3: F(1)}) == CoefFn(2, {3: F(1)})
    assert XiFn(terms={}).terms == {}


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3), {}), ((1,), {"x": 2}), ((1,), {"z": 2})],
    ids=["missing", "too-many", "twice", "unknown"],
)
def test_construction_refuses_what_a_dataclass_refuses(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_dict_defaults_are_fresh_per_instance():
    a, b = CoefFn(2), CoefFn(2)
    assert a.terms == {} and a.terms is not b.terms
    s, t = PsdSpec(1, [2]), PsdSpec(1, [2])
    assert s.cross_actions == {} and s.cross_actions is not t.cross_actions
    s.cross_actions[(1, 2)] = "x"
    assert PsdSpec(1, [2]).cross_actions == {}


def test_eq_is_field_by_field_within_one_class():
    assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(1, 3)
    assert CheckReport(True, 1, []) == CheckReport(True, 1, [])
    # same fields, another class: not equal either way
    assert CheckReport(True, 1, []) != ClosureReport(True, 1, [], [])
    assert Point(1, 2) != (1, 2) and (1, 2) != Point(1, 2)

    class Other(Record):
        x: int
        y: int = 0

    assert Point(1, 2) != Other(1, 2) and Other(1, 2) != Point(1, 2)


def test_eq_records_are_unhashable():
    for record in (Point(1), CoefFn(2), NuSeries(2, 0, {}), PsdSpec(1, [2]), Pin(1)):
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_refuse_set_and_delete():
    pin, f = Pin(1), CoefFn(2, {1: F(1)})
    for record, name in ((pin, "x"), (pin, "other"), (f, "terms"), (f, "nv")):
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert pin.x == 1 and f.terms == {1: F(1)}
    assert pin.double == 2 and vars(pin)["double"] == 2  # cached_property still fills the dict


def test_frozen_chart_keeps_its_bracket_cache():
    chart = build_chart(2)
    with pytest.raises(AttributeError):
        chart.nv = 3
    assert chart.bracket(1, 2) is chart.bracket(1, 2) and "_brackets" in vars(chart)
    assert isinstance(chart, BallChart) and "_brackets" not in vars(chart.replace())


def test_plain_records_take_assignment():
    p = Point(1)
    p.y = 5
    assert p == Point(1, 5)
    series = NuSeries(2, 1, {})
    series.exact = False
    assert series == NuSeries(2, 1, {}, False)


def test_model_keeps_identity_eq_and_hash():
    model = build_su1n(2)
    copy = model.replace()
    assert model == model and copy != model and copy.matrices is model.matrices
    assert hash(model) == object.__hash__(model) and {model: 1}[model] == 1
    cache = weakref.WeakKeyDictionary({copy: 1})
    assert len(cache) == 1
    del copy
    gc.collect()
    assert len(cache) == 0


def test_replace_builds_a_changed_copy():
    p = Point(1, 2)
    q = p.replace(y=5)
    assert q == Point(1, 5) and p == Point(1, 2) and type(q) is Point
    assert p.replace() == p and p.replace() is not p
    f = CoefFn(2, {1: F(1)})
    assert f.replace(terms={}) == CoefFn(2) and f.replace().terms is f.terms
    model = build_su1n(2)
    doubled = model.replace(beta_H0=2 * model.beta_H0)
    assert doubled.beta_H0 == 2 * model.beta_H0 and doubled.matrices is model.matrices
    with pytest.raises(TypeError):
        p.replace(z=1)


def test_repr_is_the_dataclass_repr():
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"
    assert repr(PsdSpec(2, [1, 2])) == "PsdSpec(r=2, n=[1, 2], cross_actions={})"
    report = QmmReport(True, 4, True, 28, [])
    assert repr(report) == "QmmReport(ok=True, order=4, exact=True, checked=28, failures=[])"
    assert repr(CoefFn(2, {1: F(1, 2)})) == "CoefFn(nv=2, terms={1: Fraction(1, 2)})"
    xi = XiFn({(0, 0, 0, 0, 0): GScalar(1, 0)})
    assert repr(xi) == "XiFn(terms={(0, 0, 0, 0, 0): GScalar(re=Fraction(1, 1), im=Fraction(0, 1))})"
    root = build_su1n(1).roots[0]
    assert isinstance(root, RootDatum) and repr(root).startswith("RootDatum(lambda_of_H=(")


def test_error_messages_print_the_record():
    with pytest.raises(ValueError, match=r"got PsdSpec\(r=2, n=\[1\], cross_actions=\{\}\)$"):
        build_psd(PsdSpec(2, [1]))


def test_cached_objects_cannot_be_rebound():
    """What the caches share (the key layout, the model's algebra, a
    subspace and frame of it, a table's Poisson structure and the XiFns
    of the radial table) refuses setting or deleting each attribute, so
    the checks that read them afterwards still pass."""
    theta = XiFn({(0, 2, 1, 0, 0): GScalar(1, 0), (1, 0, 2, 1, 0): GScalar(0, 1)})
    before = radial_pde_residual(theta, 2)
    model = build_su1n(2)
    xifns = [c for pair in _radial_table(2).values() for c in pair]
    shared = [key_layout(2), model.algebra, model.m_space, model.iwasawa_frame, build_qmm(2).P]
    for obj in shared + xifns:
        names = set(type(obj)._fields) | set(vars(obj))
        assert names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    layout = key_layout(2)
    with pytest.raises(AttributeError):
        layout.shifts = layout.shifts[::-1]
    assert verify_qmm(build_qmm(2), 4).ok
    assert radial_pde_residual(theta, 2) == before


def _setter_owners(path: Path) -> set:
    """The innermost class around each definition of, or assignment to,
    __setattr__ or __delattr__ in a module, None for one outside every
    class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    owners = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(getattr(node, "ctx", None), ast.Store):
            name = getattr(node, "attr", getattr(node, "id", None))
        else:
            continue
        if name in ("__setattr__", "__delattr__"):
            inside = [c for c in classes if c.lineno <= node.lineno <= c.end_lineno]
            owners.add(max(inside, key=lambda c: c.lineno).name if inside else None)
    return owners


def test_record_is_the_one_freeze_mechanism():
    package = Path(__file__).resolve().parent.parent / "src" / "ballquant"
    found = {(path.name, owner) for path in package.glob("*.py") for owner in _setter_owners(path)}
    assert found == {("scalars.py", "Record")}
