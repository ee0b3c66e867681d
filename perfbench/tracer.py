"""Spans and counters around the public functions of ballquant.

The tracer wraps functions from outside the package: no file under
``src`` is touched.  A wrapped function is rebound in its defining
module and in every ``ballquant`` module that imported it by name
(``from .linalg import solve_in_span``), so every call path goes
through the wrapper.  Methods are rebound on their class.

Spans (name, start, end, parent) are kept in memory and reduced to
per-function and per-layer totals when the run ends.  Counter hooks run
inside spans of their own named ``trace.hook`` so the time they take is
reported as tracing overhead, not as time of the layer they observe.
"""
from __future__ import annotations

import importlib
import sys
import time
from math import comb

# A traced CLI child writes its summary on stderr after this prefix.
TRACE_PREFIX = "PERFBENCH_TRACE "

# (module, attribute) pairs; "Class.method" wraps a method on its class.
TARGETS = [
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "solve_linear"),
    ("linalg", "solve_in_span"),
    ("linalg", "mat_inverse"),
    ("linalg", "rank_sparse"),
    ("lie_core", "jacobi_report"),
    ("lie_core", "LieAlgebra.__init__"),
    ("lie_core", "LieAlgebra.bracket"),
    ("lie_core", "LieAlgebra.killing_form"),
    ("lie_core", "span_subspace"),
    ("lie_core", "centralizer"),
    ("lie_core", "subspace_intersection"),
    ("lie_core", "subalgebra"),
    ("su1n_model", "build_su1n"),
    ("su1n_model", "adapted_s_basis"),
    ("su1n_model", "s_submodel"),
    ("su1n_model", "iwasawa_project"),
    ("su1n_model", "verify_sigma_pairing"),
    ("su1n_model", "verify_m_orthocomplement"),
    ("psd_builder", "build_psd"),
    ("psd_builder", "match_iwasawa"),
    ("ce_cohomology", "delta"),
    ("ce_cohomology", "is_cocycle"),
    ("ce_cohomology", "h2_dimension"),
    ("ce_cohomology", "cocycle_space"),
    ("ce_cohomology", "check_psd_cocycle_conditions"),
    ("ce_cohomology", "coboundary_primitive_psd"),
    ("ce_cohomology", "coboundary_primitive_roots"),
    ("ce_cohomology", "invariant_cocycle_space"),
    ("formal_star", "c_operator"),
    ("formal_star", "moyal"),
    ("formal_star", "star_commutator"),
    ("formal_star", "half_commutator"),
    ("formal_star", "NuSeries.mul"),
    ("ball_quantization", "build_chart"),
    ("ball_quantization", "classical_moment"),
    ("ball_quantization", "build_qmm"),
    ("ball_quantization", "verify_qmm"),
    ("ball_quantization", "fundamental_field"),
    ("retract_pde", "check_reduction_closure"),
    ("retract_pde", "radial_reduce"),
    ("retract_pde", "retract_operator"),
    ("retract_pde", "apply_operator"),
    ("retract_pde", "radial_pde_residual"),
    ("cli", "main"),
]

# Wrapped without a span: called too often for a span to be cheap, so
# only its counter hook runs.
COUNT_ONLY = [("ce_cohomology", "_d2_row")]

LAYERS = [
    "linalg",
    "lie_core",
    "su1n_model",
    "psd_builder",
    "ce_cohomology",
    "formal_star",
    "ball_quantization",
    "retract_pde",
    "cli",
]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_bits(obj) -> int:
    """Largest numerator or denominator bit length inside a result."""
    if obj is None or isinstance(obj, bool):
        return 0
    if hasattr(obj, "denominator"):
        return _bits(obj)
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(v) for v in obj), default=0)
    return 0


def _hook_linalg(tr, name, args, out):
    if name == "linalg.rank_sparse":
        tr.count("linalg.rank_sparse.nnz", sum(len(r) for r in args[0]))
        return
    tr.maximum("linalg.max_bits", _max_bits(out))


def _hook_jacobi(tr, name, args, out):
    tr.count("lie_core.jacobi.calls", 1)


def _hook_lie_init(tr, name, args, out):
    tr.count("lie_core.structure_nnz", sum(len(c) for c in args[0].structure.values()))


def _hook_d2_row(tr, name, args, out):
    if out:
        tr.count("ce_cohomology.d2_rows", 1)


def _hook_c_operator(tr, name, args, out):
    f, g, P, m = args[:4]
    tr.count("formal_star.c_operator.calls", 1)
    tr.count("formal_star.c_operator.combos", comb(len(P.directed_pairs) + m - 1, m))
    if out.terms:
        tr.count("formal_star.c_operator.nonzero", 1)
        tr.count("formal_star.terms_out", len(out.terms))
        tr.maximum("formal_star.max_bits", max(_bits(c) for c in out.terms.values()))


def _hook_verify_qmm(tr, name, args, out):
    tr.count("ball_quantization.pairs", out.checked)


def _hook_retract_operator(tr, name, args, out):
    tr.count("retract_pde.operator_keys", len(out))


def _hook_radial(tr, name, args, out):
    tr.count("retract_pde.xifn_terms", sum(len(f.terms) for f in out))


HOOKS = {
    "linalg.rref": _hook_linalg,
    "linalg.nullspace": _hook_linalg,
    "linalg.solve_linear": _hook_linalg,
    "linalg.solve_in_span": _hook_linalg,
    "linalg.mat_inverse": _hook_linalg,
    "linalg.rank_sparse": _hook_linalg,
    "lie_core.jacobi_report": _hook_jacobi,
    "lie_core.LieAlgebra.__init__": _hook_lie_init,
    "ce_cohomology._d2_row": _hook_d2_row,
    "formal_star.c_operator": _hook_c_operator,
    "ball_quantization.verify_qmm": _hook_verify_qmm,
    "retract_pde.retract_operator": _hook_retract_operator,
    "retract_pde.radial_pde_residual": _hook_radial,
}


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"ballquant.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def rebind(module: str, attr: str, make_wrapper) -> list:
    """Replace a function everywhere ballquant can reach it by name.

    Returns the (owner, name, original) triples needed to undo it.
    """
    owner, name = _resolve(module, attr)
    original = owner.__dict__[name]
    wrapper = make_wrapper(original)
    undo = [(owner, name, original)]
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return undo
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not mod_name.startswith("ballquant"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapper)
    return undo


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    """Nestable spans and counters for one process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.stack: list = []
        self.counters: dict = {}
        self.maxima: dict = {}
        self._undo: list = []

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key: str, n: int) -> None:
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n

    def span(self, name: str, fn, *args, **kwargs):
        stack = self.stack
        idx = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _hooked(self, name: str, hook, args, out) -> None:
        self.span("trace.hook", hook, self, name, args, out)

    def _make(self, name: str, with_span: bool):
        hook = HOOKS.get(name)
        tracer = self

        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                if with_span:
                    out = tracer.span(name, original, *args, **kwargs)
                else:
                    out = original(*args, **kwargs)
                if hook is not None:
                    tracer._hooked(name, hook, args, out)
                return out

            wrapper.__name__ = getattr(original, "__name__", name)
            wrapper.__doc__ = getattr(original, "__doc__", None)
            return wrapper

        return make_wrapper

    def install(self) -> None:
        for module, attr in TARGETS:
            self._undo += rebind(module, attr, self._make(f"{module}.{attr}", True))
        for module, attr in COUNT_ONLY:
            self._undo += rebind(module, attr, self._make(f"{module}.{attr}", False))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def summary(self) -> dict:
        """Reduce the spans to additive totals.

        busy: per function, the time of its outermost spans (a recursive
        or re-entrant call is not counted twice); self: per function and
        per layer, span time minus the time of direct child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict = {}
        self_fn: dict = {}
        self_layer: dict = {}
        calls: dict = {}
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            own = dur - child_time[idx]
            self_fn[name] = self_fn.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            self_layer[layer] = self_layer.get(layer, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] = busy.get(name, 0.0) + dur
        return {
            "busy": busy,
            "self": self_fn,
            "layer_self": self_layer,
            "calls": calls,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def merge(a: dict, b: dict) -> dict:
    """Combine two summaries: totals add, maxima take the larger."""
    out = {}
    for key in ("busy", "self", "layer_self", "calls", "counters"):
        merged = dict(a.get(key, {}))
        for k, v in b.get(key, {}).items():
            merged[k] = merged.get(k, 0) + v
        out[key] = merged
    maxima = dict(a.get("maxima", {}))
    for k, v in b.get("maxima", {}).items():
        maxima[k] = max(maxima.get(k, 0), v)
    out["maxima"] = maxima
    return out


def _sum(table: dict, *names: str) -> float:
    return sum(table.get(n, 0) for n in names)


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics, by the names listed in BENCHMARK.json."""
    busy, own, cnt, mx = s["busy"], s["self"], s["counters"], s["maxima"]
    calls = cnt.get("formal_star.c_operator.calls", 0)
    out = {
        "linalg.rref_s": _sum(busy, "linalg.rref"),
        "linalg.solve_in_span_s": _sum(busy, "linalg.solve_in_span"),
        "linalg.nullspace_s": _sum(busy, "linalg.nullspace"),
        "linalg.rank_sparse_s": _sum(busy, "linalg.rank_sparse"),
        "linalg.rank_sparse.nnz": cnt.get("linalg.rank_sparse.nnz", 0),
        "linalg.max_bits": mx.get("linalg.max_bits", 0),
        "lie_core.jacobi_s": _sum(busy, "lie_core.jacobi_report"),
        "lie_core.jacobi.calls": cnt.get("lie_core.jacobi.calls", 0),
        "lie_core.bracket_s": _sum(busy, "lie_core.LieAlgebra.bracket"),
        "lie_core.killing_form_s": _sum(busy, "lie_core.LieAlgebra.killing_form"),
        "lie_core.subspace_s": _sum(
            busy,
            "lie_core.span_subspace",
            "lie_core.centralizer",
            "lie_core.subspace_intersection",
            "lie_core.subalgebra",
        ),
        "lie_core.structure_nnz": cnt.get("lie_core.structure_nnz", 0),
        "su1n_model.build_su1n.self_s": _sum(own, "su1n_model.build_su1n"),
        "su1n_model.adapted_s_basis_s": _sum(busy, "su1n_model.adapted_s_basis"),
        "su1n_model.s_submodel_s": _sum(busy, "su1n_model.s_submodel"),
        "su1n_model.checks_s": _sum(
            busy, "su1n_model.verify_sigma_pairing", "su1n_model.verify_m_orthocomplement"
        ),
        "psd_builder.build_psd.self_s": _sum(own, "psd_builder.build_psd"),
        "ce_cohomology.h2_dimension_s": _sum(busy, "ce_cohomology.h2_dimension"),
        "ce_cohomology.invariant_cocycle_space_s": _sum(
            busy, "ce_cohomology.invariant_cocycle_space"
        ),
        "ce_cohomology.primitive_s": _sum(
            busy, "ce_cohomology.coboundary_primitive_roots", "ce_cohomology.coboundary_primitive_psd"
        ),
        "ce_cohomology.d2_rows": cnt.get("ce_cohomology.d2_rows", 0),
        "formal_star.c_operator_s": _sum(busy, "formal_star.c_operator"),
        "formal_star.c_operator.calls": calls,
        "formal_star.c_operator.nonzero_ratio": (
            cnt.get("formal_star.c_operator.nonzero", 0) / calls if calls else 0.0
        ),
        "formal_star.c_operator.combos": cnt.get("formal_star.c_operator.combos", 0),
        "formal_star.star_commutator_s": _sum(busy, "formal_star.star_commutator"),
        "formal_star.terms_out": cnt.get("formal_star.terms_out", 0),
        "formal_star.max_bits": mx.get("formal_star.max_bits", 0),
        "ball_quantization.build_chart_s": _sum(busy, "ball_quantization.build_chart"),
        "ball_quantization.classical_moment_s": _sum(busy, "ball_quantization.classical_moment"),
        "ball_quantization.build_qmm_s": _sum(busy, "ball_quantization.build_qmm"),
        "ball_quantization.verify_qmm.self_s": _sum(own, "ball_quantization.verify_qmm"),
        "ball_quantization.pairs": cnt.get("ball_quantization.pairs", 0),
        "retract_pde.retract_operator_s": _sum(busy, "retract_pde.retract_operator"),
        "retract_pde.operator_keys": cnt.get("retract_pde.operator_keys", 0),
        "retract_pde.apply_operator_s": _sum(busy, "retract_pde.apply_operator"),
        "retract_pde.radial_pde_residual_s": _sum(busy, "retract_pde.radial_pde_residual"),
        "retract_pde.xifn_terms": cnt.get("retract_pde.xifn_terms", 0),
        "retract_pde.check_reduction_closure_s": _sum(busy, "retract_pde.check_reduction_closure"),
        # measured around the child processes by the cli workload itself
        "cli.startup_s": 0.0,
        "cli.stdout_bytes": 0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s["layer_self"].get(layer, 0.0)
    return out


def plant_delay(target: str, factor: float) -> list:
    """Make every call of ``module.function`` take (1 + factor) times as
    long, by spinning after it returns.  Used by the selectivity check;
    returns the undo list for ``restore``."""
    module, attr = target.split(".", 1)

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            until = time.perf_counter() + factor * (time.perf_counter() - start)
            while time.perf_counter() < until:
                pass
            return out

        return wrapper

    return rebind(module, attr, make_wrapper)
