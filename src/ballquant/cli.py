"""Command line interface.

Each subcommand prints a single JSON document on stdout with sorted
keys, so repeated runs are byte identical; timing goes to stderr.  The
exporters of the other modules return plain data, and _emit is the one
place in the package that encodes JSON.  The exit code is 0 on success,
1 when a verification suite fails and 2 on usage errors, each reported
on one stderr line, the parser's own included.  Each command imports the
modules it runs inside its own function, so a process loads only those:
build-psd never loads the star product, and the elapsed line on
stderr includes that command's own module loading.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .scalars import DEFAULT_TRUNCATION, parse_frac

SERIES = ("qmm", "retract")  # the verify suites that truncate series
# The largest N a command takes, refused above before any build (README,
# "Limits").  At 30 the costliest command is su1n-export, the one that
# builds and writes the structure table, near 254 MB; of the suites, which
# build no table, --suite retract peaks near 106 MB and --suite qmm near
# 86 MB.  At 12 the cocycle suite, whose cost grows faster in N (h2 --su1n
# too), peaks near 225 MB.
N_CEILING = 30
COHOMOLOGY_CEILING = 12
# The largest sum of the --blocks dimensions that build-psd and h2 take,
# refused above in the same way.  h2 alone sets it: its costliest split
# was measured near 195 MB and 3 s at this sum, and near 275 MB at 300,
# past the 225 MB of COHOMOLOGY_CEILING.  build-psd sweeps no block table
# and stays near 0.07 s and 17 MB up to 400.
BLOCKS_CEILING = 250
# The largest --order, refused above in the same way.  qmm does not grow
# with it, a failing pair reporting only its residual's nonzero powers
# (87 MB at N_CEILING at 1000), but retract-residual does (17 MB at 1000,
# 143 MB at 10000), and at N_CEILING the retract suite, through its
# operators' keys and terms, peaks near 142 MB at 7, 178 at 8, 254 at 12.
ORDER_CEILING = 1000
RETRACT_ORDER_CEILING = 7
# verify options that only some suites read, with those suites
SUITE_OPTIONS = {"mutate": ("qmm",), "pairs": ("qmm",), "alpha": SERIES, "order": SERIES}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


class UsageError(Exception):
    """A malformed option value; main reports it on one line and exits 2."""


def _check_args(args) -> None:
    """Validate and parse every option value before any work starts.

    Raises UsageError naming the option; an option that the command
    would ignore is an error too, and so is an N past the command's
    ceiling (N_CEILING, or COHOMOLOGY_CEILING for h2 and the cocycle suite),
    an order past ORDER_CEILING (RETRACT_ORDER_CEILING for the retract
    suite) and block dimensions that sum past BLOCKS_CEILING.
    Parsed values: --blocks in place, --alpha and --value as alpha_q and
    value_q, --theta-json as theta, an omitted --order as its suite's default.
    """
    opts = vars(args)
    for name, least in (("N", 1), ("su1n", 1), ("r", 1), ("order", 0)):
        if opts.get(name) is not None and opts[name] < least:
            raise UsageError(f"--{name} must be at least {least}, got {opts[name]}")
    if args.command == "verify":  # an option the suite ignores is named before any ceiling
        for name, suites in SUITE_OPTIONS.items():
            if opts[name] is not None and args.suite not in suites:
                only = " or ".join(suites)
                raise UsageError(f"--{name} applies to --suite {only} only, not {args.suite}")
    cohomology = args.command == "h2" or opts.get("suite") == "cocycle"
    n_max = (COHOMOLOGY_CEILING, " for cohomology") if cohomology else (N_CEILING, "")
    retract = opts.get("suite") == "retract"
    order_max = (RETRACT_ORDER_CEILING, " for --suite retract") if retract else (ORDER_CEILING, "")
    for name, (ceiling, what) in zip(("N", "su1n", "n", "order"), (n_max, n_max, n_max, order_max)):
        if opts.get(name) is not None and opts[name] > ceiling:
            raise UsageError(f"--{name} must be at most {ceiling}{what}, got {opts[name]}")
    if args.command == "h2" and args.su1n is not None and (args.r, args.blocks) != (None, None):
        raise UsageError("--su1n excludes --r and --blocks")
    for name in ("alpha", "value"):
        try:
            opts[f"{name}_q"] = None if opts.get(name) is None else parse_frac(opts[name])
        except ValueError:
            raise UsageError(f"--{name} must be a rational number, got {opts[name]!r}") from None
    if opts.get("blocks") is not None:
        parts = args.blocks.split(",")
        try:
            ok = len(parts) == args.r and all(x.isdecimal() and int(x) >= 1 for x in parts)
        except ValueError:  # more digits than int() converts
            ok = False
        if not ok:
            raise UsageError("--blocks must list one positive dimension per block of --r")
        args.blocks = [int(x) for x in parts]
        if sum(args.blocks) > BLOCKS_CEILING:
            raise UsageError(f"--blocks must sum to at most {BLOCKS_CEILING}")
    if args.command == "h2" and args.su1n is None and args.blocks is None:
        raise UsageError("h2 needs either --su1n N or --r R --blocks n1,..,nR")
    if args.command == "verify":
        if args.suite == "retract" and args.N < 2:
            raise UsageError("--N must be at least 2 for --suite retract")
        for name in ("label", "value"):
            if opts[name] is not None and args.mutate != "add-nu-const":
                raise UsageError(f"--{name} applies with --mutate add-nu-const only")
        if args.label is not None:
            from .ball_quantization import qmm_labels

            if args.label not in qmm_labels(args.N):
                raise UsageError(f"--label {args.label!r} is not a moment label of su(1,{args.N})")
        if args.mutate == "add-nu-const" and (args.label is None or args.value is None):
            raise UsageError("--mutate add-nu-const needs --label and --value")
        if args.order is None and args.suite in SERIES:
            args.order = 4 if args.suite == "retract" else DEFAULT_TRUNCATION
    if args.command == "retract-residual":
        if args.n < 2:
            raise UsageError(f"--n must be at least 2, got {args.n}")
        from .retract_pde import xifn_from_json

        try:
            args.theta = xifn_from_json(json.loads(args.theta_json))
        except (ValueError, RecursionError) as err:  # RecursionError: JSON nested too deep
            shape = '{"terms": [[k, m, n, h, j, re, im]]}'
            raise UsageError(f"--theta-json must look like {shape}: {err}") from None


def _cmd_build_psd(args) -> int:
    from .psd_builder import PsdSpec, build_psd, psd_spec_to_json

    spec = PsdSpec(args.r, args.blocks)
    psd = build_psd(spec)
    _emit(
        {
            "spec": psd_spec_to_json(spec),
            "algebra": psd.algebra.to_json(),
            "blocks": {str(j): roles for j, roles in psd.blocks.items()},
        }
    )
    return 0


def _cmd_su1n_export(args) -> int:
    from .su1n_model import build_su1n, model_to_json

    _emit(model_to_json(build_su1n(args.N)))
    return 0


def _cmd_h2(args) -> int:
    from .ce_cohomology import h2_dimension

    if args.su1n is not None:
        from .su1n_model import build_su1n

        algebra = build_su1n(args.su1n).algebra
    else:
        from .psd_builder import PsdSpec, build_psd

        algebra = build_psd(PsdSpec(args.r, args.blocks)).algebra
    _emit({"dim": algebra.dim, "h2": h2_dimension(algebra)})
    return 0


def _suite_su1n(args) -> tuple:
    from .su1n_model import build_su1n, verify_m_orthocomplement, verify_sigma_pairing

    model = build_su1n(args.N)
    pairing = verify_sigma_pairing(model)
    ortho = verify_m_orthocomplement(model)
    ok = pairing.ok and ortho.ok
    return ok, {
        "suite": "su1n",
        "N": args.N,
        "ok": ok,
        "sigma_pairing": {"ok": pairing.ok, "checked": pairing.checked},
        "m_orthocomplement": {"ok": ortho.ok, "checked": ortho.checked},
    }


def _suite_qmm(args) -> tuple:
    from .ball_quantization import build_qmm, mutate_add_nu_const, mutate_drop_nu2, verify_qmm

    table = build_qmm(args.N, args.alpha_q)
    if args.mutate == "drop-nu2":
        table = mutate_drop_nu2(table)
    elif args.mutate == "add-nu-const":
        table = mutate_add_nu_const(table, args.label, args.value_q)
    report = verify_qmm(table, args.order, pairs=args.pairs or "all")
    return report.ok, {
        "suite": "qmm",
        "N": args.N,
        "alpha": "symbolic" if args.alpha is None else args.alpha,
        "mutation": args.mutate,
        "ok": report.ok,
        "order": report.order,
        "exact": report.exact,
        "checked": report.checked,
        "failures": [[li, lj] for li, lj, _ in report.failures],
    }


def _suite_retract(args) -> tuple:
    from .ball_quantization import build_qmm, fundamental_field
    from .formal_star import CoefFn, NuSeries
    from .retract_pde import apply_operator, check_reduction_closure, k_basis, retract_operator
    from .su1n_model import build_su1n

    order = args.order
    model = build_su1n(args.N)
    closure = check_reduction_closure(model)
    table = build_qmm(args.N, args.alpha_q)
    chart = table.chart
    one = NuSeries.from_coef(CoefFn.const(chart.nv, parse_frac("1")), order)
    # k_basis lists the m generators first, so their operators lead ops
    ops = [retract_operator(table, x, order=order) for x in k_basis(chart)[1]]
    dim = chart.nv + 2
    zero = (0,) * dim
    constants_ok = all(zero not in op and apply_operator(op, one, order).is_zero() for op in ops)
    # each m operator is its fundamental field, key for key, exactly
    fields_ok = all(
        op == {
            tuple(int(i == c) for i in range(dim)): NuSeries.from_coef(comp, order)
            for c, comp in enumerate(fundamental_field(chart, y))
            if comp.terms
        }
        for y, op in zip(chart.m_basis, ops)
    )
    ok = closure.ok and constants_ok and fields_ok
    return ok, {
        "suite": "retract",
        "N": args.N,
        "ok": ok,
        "dim_w": closure.dim_w,
        "dim_filled": closure.dim_filled,
        "constants_annihilated": constants_ok,
        "m_fields_match": fields_ok,
    }


def _suite_cocycle(args) -> tuple:
    from .ce_cohomology import (
        coboundary_primitive_roots,
        delta,
        h2_dimension,
        invariant_cocycle_space,
    )
    from .su1n_model import build_su1n

    model = build_su1n(args.N)
    h2 = h2_dimension(model.algebra)
    sub, basis = invariant_cocycle_space(model)
    primitive_ok = all(
        delta(sub.algebra, coboundary_primitive_roots(model, c)).data == c.data for c in basis
    )
    ok = h2 == 0 and primitive_ok
    return ok, {
        "suite": "cocycle",
        "N": args.N,
        "ok": ok,
        "h2": h2,
        "invariant_dim": len(basis),
        "primitive_ok": primitive_ok,
    }


def _cmd_verify(args) -> int:
    suites = {
        "su1n": _suite_su1n,
        "qmm": _suite_qmm,
        "retract": _suite_retract,
        "cocycle": _suite_cocycle,
    }
    ok, payload = suites[args.suite](args)
    _emit(payload)
    return 0 if ok else 1


def _cmd_retract_residual(args) -> int:
    from .retract_pde import radial_pde_residual, xifn_to_json

    wv, om = radial_pde_residual(args.theta, args.n, order=args.order)
    _emit({"n": args.n, "wv": xifn_to_json(wv), "omega": xifn_to_json(om)})
    return 0


def _cmd_qmm_export(args) -> int:
    from .ball_quantization import build_qmm, qmm_table_to_json

    _emit(qmm_table_to_json(build_qmm(args.N, args.alpha_q)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line on one stderr line, exit 2."""

    def error(self, message):
        self.exit(2, f"ballquant: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ballquant",
        description="Exact checks for the quantization of the rank one domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-psd", help="construct a block nilpotent algebra")
    p.add_argument("--r", type=int, required=True, help="number of blocks")
    p.add_argument("--blocks", required=True, help="comma separated block dimensions")
    p.set_defaults(func=_cmd_build_psd)

    p = sub.add_parser("su1n-export", help="export the su(1,N) model")
    p.add_argument("--N", type=int, default=2)
    p.set_defaults(func=_cmd_su1n_export)

    p = sub.add_parser("h2", help="second cohomology dimension")
    p.add_argument("--su1n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--blocks")
    p.set_defaults(func=_cmd_h2)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["su1n", "qmm", "retract", "cocycle"], required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--alpha", help="rational value, symbolic when omitted")
    p.add_argument("--order", type=int, help="truncation order, default 12 (qmm) or 4 (retract)")
    p.add_argument("--pairs", choices=["all", "s"], help="qmm pairs, all when omitted")
    p.add_argument("--mutate", choices=["drop-nu2", "add-nu-const"])
    p.add_argument("--label", help="moment label for add-nu-const")
    p.add_argument("--value", help="rational constant for add-nu-const")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("retract-residual", help="apply the radial operator")
    p.add_argument("--n", type=int, default=2, help="complex dimension parameter")
    p.add_argument("--order", type=int, help="expand square roots to this nu order")
    p.add_argument(
        "--theta-json",
        default='{"terms": [[0, 0, 0, 0, 0, "1/1", "0/1"]]}',
        help="radial symbol as JSON, default is the constant 1",
    )
    p.set_defaults(func=_cmd_retract_residual)

    p = sub.add_parser("qmm-export", help="export the quantum moment table")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--alpha")
    p.set_defaults(func=_cmd_qmm_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_args(args)
    except UsageError as exc:
        sys.stderr.write(f"ballquant: error: {exc}\n")
        return 2
    code = args.func(args)
    sys.stderr.write(f"elapsed {time.perf_counter() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
