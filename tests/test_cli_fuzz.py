"""Grammar fuzz of the command line: the exit-code contract under any argv.

The strategy reads the grammar off ``build_parser()`` itself: its
commands, and for each the options, their types and choices.  Every
drawn argv picks a command, a subset of its options in any order and a
value for each, in one of three modes:

- clean: every value valid and cheap, with N at most 4 and every order
  at or below its ceiling;
- extreme: one option past its bounds (an int past its ceiling or
  floor, or a huge one; a rational past the literal length or the
  exponent limit; a block list past its sum or malformed; JSON nested
  100000 deep or of the wrong shape), every other value valid;
- dirty: valid, extreme and malformed values mixed, now and then with
  a stray token.

Values that cost much while below a ceiling (N near N_CEILING) are not
drawn, so each run stays well inside the budget.  main(argv) runs in
process under a time budget (a SIGALRM between bytecodes) and an
address-space budget (a soft RLIMIT_AS), so a runaway run fails the test
instead of hanging it or exhausting the machine.  Every run must exit
0, 1 or 2 with no exception.  Exit 2 prints nothing on stdout and one
line on stderr, exit 0 one JSON document, and exit 1 comes only from a
verification that really failed: a verify suite with a planted
mutation, whose report says ok false, while the same command without
the mutation exits 0.  Without the --order ceiling the fuzz fails in
seconds with a MemoryError.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballquant.ball_quantization import qmm_labels
from ballquant.cli import BLOCKS_CEILING, COHOMOLOGY_CEILING, N_CEILING, ORDER_CEILING
from ballquant.cli import RETRACT_ORDER_CEILING, build_parser, main
from ballquant.scalars import LITERAL_LENGTH

BUDGET_S = 10
BUDGET_MB = 1024


def address_space() -> int | None:
    """The bytes of address space this process maps, where
    /proc/self/statm tells it."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[0]) * resource.getpagesize()
    except OSError:
        return None


BASE = address_space()


class Overrun(Exception):
    """A run took longer than the time budget."""


@contextmanager
def budget(seconds: float, megabytes: int):
    """Run the body under a time budget, a SIGALRM that raises Overrun
    between bytecodes, and a soft RLIMIT_AS on this process of megabytes
    past the address space it mapped when this module loaded, so that a
    runaway allocation raises MemoryError rather than exhausting the
    machine, however much earlier failing runs left held.  Both are
    restored on exit."""

    def overrun(signum, frame):
        raise Overrun(f"the run took more than {seconds} s")

    limits = resource.getrlimit(resource.RLIMIT_AS)
    if BASE is not None:
        cap = BASE + (megabytes << 20)
        if limits[1] != resource.RLIM_INFINITY:
            cap = min(cap, limits[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        resource.setrlimit(resource.RLIMIT_AS, limits)


def grammar() -> dict:
    """command -> its options (flag, dest, type, choices, required), as
    build_parser() declares them."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (a.option_strings[0], a.dest, a.type, a.choices, a.required)
            for a in sub._actions
            if a.option_strings and a.dest != "help"
        ]
        for name, sub in commands.choices.items()
    }


GRAMMAR = grammar()

malformed = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", "-", "1.5", "0x10", "1e", "nan", "inf", "1/0", "٣", "--N"]),
)
huge_ints = st.one_of(
    st.integers(-(10**30), 10**30),
    st.sampled_from([10**8, 10**20, 9 * 10**4299]),
).map(str)


def cheap_ints(dest: str):
    """The runnable values of an int option, cheap at every one; an order
    reaches its ceiling, which is cheap at small N."""
    if dest == "order":
        return st.sampled_from([*range(0, RETRACT_ORDER_CEILING + 1), ORDER_CEILING])
    if dest == "n":  # the radial operator's cost does not grow with n
        return st.integers(2, N_CEILING)
    return st.integers(1, 4)


def past_ceilings(dest: str):
    """Values just past an int option's ceilings, or below its floor."""
    ceilings = {
        "order": [RETRACT_ORDER_CEILING + 1, ORDER_CEILING + 1],
        "r": [BLOCKS_CEILING + 1],
        "su1n": [COHOMOLOGY_CEILING + 1],
    }
    return st.sampled_from(ceilings.get(dest, [N_CEILING + 1]) + [0, -1]).map(str)


def long(pairs: list):
    """Each (text, n) as text repeated n times, built on draw, so that no
    strategy holds (and prints) a long string."""
    return st.sampled_from(pairs).map(lambda p: p[0] * p[1])


rationals = st.one_of(
    st.fractions(max_denominator=50).filter(lambda q: abs(q) < 100).map(str),
    st.sampled_from(["0.25", "-3e2", "1e4300", "1e-300"]),
    long([("7", 2000)]),
)
far_rationals = st.one_of(st.just("1e999999999"), long([("9", LITERAL_LENGTH + 1)]))


def blocks(r: str):
    """Block dimensions, one per block when r is a small count."""
    size = int(r) if r in ("1", "2", "3", "4") else None
    listed = st.lists(st.integers(1, 4), min_size=size or 1, max_size=size or 3)
    return listed.map(lambda xs: ",".join(map(str, xs)))


far_blocks = st.one_of(
    st.sampled_from([f"{BLOCKS_CEILING},1", "1,,2", "-1,2", "٣,1"]),
    st.integers(40, 5000).map(lambda n: "9" * n + ",1"),
)
theta_terms = st.lists(
    st.tuples(
        st.integers(-2, 2), st.integers(-2, 3), st.integers(0, 3), st.integers(-1, 1),
        st.integers(0, 3), rationals, rationals,
    ).map(list),
    max_size=3,
)
far_theta = st.one_of(
    st.sampled_from(['{"terms": [[0, 0, 0, 0, 0, "1"]]}', "{}", "[]"]),
    long([("[", 100), ("[", 100000)]),
)
# dest -> (valid, extreme) values of the options that take text
TEXT = {
    "alpha": (rationals, far_rationals),
    "value": (rationals, far_rationals),
    "label": (st.sampled_from(qmm_labels(4)), st.sampled_from(["f99", "sE ", ""])),
    "theta_json": (theta_terms.map(lambda terms: json.dumps({"terms": terms})), far_theta),
}


def values(dest: str, kind, choices, drawn: dict, mode: str):
    """A value of one option: valid when the mode is clean, extreme when
    it is extreme, else valid, extreme or malformed.  drawn holds the
    values drawn for the earlier options."""
    if choices is not None:
        valid, extreme = st.sampled_from(list(choices)), st.nothing()
    elif kind is int:
        valid, extreme = cheap_ints(dest).map(str), st.one_of(past_ceilings(dest), huge_ints)
    elif dest == "blocks":
        valid, extreme = blocks(drawn.get("--r", "")), far_blocks
    else:
        valid, extreme = TEXT[dest]
    if mode == "dirty":
        return st.one_of(valid, valid, extreme, malformed)
    return extreme if mode == "extreme" else valid


@st.composite
def argvs(draw) -> list:
    """A command, nearly always with its required options and each other
    one a quarter of the time, flag and value pairs in any order, in one
    of three modes: clean, every value valid; extreme, one option without
    choices drawn extreme and every other value valid; dirty, valid,
    extreme and malformed values mixed and, one time in five, a stray
    token."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    options = GRAMMAR[command]
    mode = draw(st.sampled_from(["clean", "extreme", "dirty"]))
    target = draw(st.sampled_from([flag for flag, _, _, choices, _ in options if not choices]))
    drawn = {}
    for flag, dest, kind, choices, required in options:
        if flag == target and mode == "extreme":
            drawn[flag] = draw(values(dest, kind, choices, drawn, mode))
        elif draw(st.integers(0, 7)) < (7 if required else 2):
            drawn[flag] = draw(values(dest, kind, choices, drawn, mode.replace("extreme", "clean")))
    argv = [command] + [x for pair in draw(st.permutations(list(drawn.items()))) for x in pair]
    if mode == "dirty" and not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-"])))
    return argv


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), budget(BUDGET_S, BUDGET_MB):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def without_mutation(argv: list) -> list:
    """argv, drawn as flag and value pairs after the command, without
    --mutate, --label and --value."""
    pairs = zip(argv[1::2], argv[2::2])
    return argv[:1] + [x for p in pairs if p[0] not in ("--mutate", "--label", "--value") for x in p]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(argvs())
@example(["verify", "--suite", "qmm", "--N", "2", "--mutate", "drop-nu2"])
@example(["verify", "--mutate", "add-nu-const", "--value", "1/3", "--suite", "qmm", "--label", "E"])
@example(["verify", "--suite", "retract", "--N", "3", "--order", str(RETRACT_ORDER_CEILING)])
def test_every_argv_keeps_the_exit_code_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, argv
    else:
        payload = json.loads(out)
    if code == 1:
        assert argv[0] == "verify" and "--mutate" in argv and payload["ok"] is False, argv
        assert run(without_mutation(argv))[0] == 0, argv


def test_the_grammar_is_read_from_the_parser():
    """Each command and option the parser declares has a strategy, and
    the values of --suite are its choices."""
    assert sorted(GRAMMAR) == [
        "build-psd", "h2", "qmm-export", "retract-residual", "su1n-export", "verify",
    ]
    verify = {flag: (kind, choices) for flag, _, kind, choices, _ in GRAMMAR["verify"]}
    assert verify["--N"][0] is int and verify["--order"][0] is int
    assert verify["--suite"][1] == ["su1n", "qmm", "retract", "cocycle"]
    for options in GRAMMAR.values():
        for _, dest, kind, choices, _ in options:
            assert kind is int or choices or dest == "blocks" or dest in TEXT, dest


def test_the_budget_stops_a_run_that_overruns():
    """The budget turns a run past it into a failure rather than a hang
    or an exhausted machine, and restores the limits it set."""
    limits = resource.getrlimit(resource.RLIMIT_AS)
    with pytest.raises(Overrun):
        with budget(0.05, BUDGET_MB):
            while True:
                pass
    if BASE is not None:
        with pytest.raises(MemoryError):
            with budget(BUDGET_S, BUDGET_MB):
                bytearray(2 * BUDGET_MB << 20)
    assert resource.getrlimit(resource.RLIMIT_AS) == limits
