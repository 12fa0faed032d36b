"""Property test of the CLI's exit contract: over generated argv and JSON
configs, every run exits 0, 1 or 2, raises no exception past `main` (that
is, prints no traceback) and ends within DEADLINE seconds.  A scalar
economics command that exits 0 prints only finite numbers: an overflow is
an error, not an `inf` or `nan` result.

The drawn values mix small legal ones with sizes past every bound, numbers
no float holds, non-finite floats and values of the wrong JSON type.  Legal
sizes stay small, so each run that succeeds is quick: the largest legal
ones cost up to seconds (a `min-xi` at B = 100,000), which is slow but
bounded, and a grid is drawn from a few starts and steps so a legal sweep
has at most a few hundred rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adess.cli import main

DEADLINE = 2.0

#: sizes and depths: small ones, and ones past the bounds or past a float
HUGE_INTS = [100_001, 10 ** 6, 10 ** 8, 2 ** 63, 10 ** 400, -10 ** 400]
INTS = st.one_of(st.integers(-2, 12), st.sampled_from(HUGE_INTS))
ODD_FLOATS = [0.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308, 1e400, math.inf,
              -math.inf, math.nan]
FLOATS = st.one_of(st.floats(-0.5, 2.0), st.floats(-1.0, 30.0),
                   st.sampled_from(ODD_FLOATS))
#: flag text: the numbers above, now and then text the flag's type rejects
INT_TEXT = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(
    [str(n) for n in HUGE_INTS] + ["x", "1.5"]))
FLOAT_TEXT = st.one_of(st.floats(-0.5, 2.0).map(repr),
                       st.floats(-1.0, 30.0).map(repr),
                       st.sampled_from([repr(x) for x in ODD_FLOATS] + ["x"]))

#: JSON values: numbers as above, and values of the wrong type
WRONG = st.sampled_from([None, True, False, "x", "3", [], {}, [1, 2]])
J_INT = st.one_of(INTS, WRONG)
J_NUM = st.one_of(FLOATS, INTS, WRONG)


def _flags(required: dict, optional: dict):
    """argv tails: every flag of `required` and some of `optional`."""
    def flatten(d):
        return [tok for flag, value in d.items() for tok in (flag, value)]
    return st.fixed_dictionaries(required, optional=optional).map(flatten)


ECON = {"--pb": FLOAT_TEXT, "--c": FLOAT_TEXT, "--delta": FLOAT_TEXT,
        "--alpha": INT_TEXT, "--sigma": INT_TEXT, "--b": INT_TEXT}
COST = {k: ECON[k] for k in ("--c", "--delta", "--alpha", "--sigma")}

ATTACK = st.fixed_dictionaries({}, optional={
    "v": J_NUM, "p_B": J_NUM, "c": J_NUM, "delta": J_NUM, "xi": J_NUM,
    "alpha": J_INT, "sigma": J_INT, "B": J_INT, "epsilon_extra": J_NUM})
# a legal grid has at most (30 - -1) / 0.125 + 1 = 249 points
GRID_NUM = st.one_of(st.sampled_from([-1, 0, 0.125, 1, 2.5, 30, 1e17]),
                     FLOATS, WRONG)
GRID = st.fixed_dictionaries({}, optional={
    "param": st.sampled_from(["xi", "v", "c"]), "start": GRID_NUM,
    "stop": GRID_NUM, "step": GRID_NUM,
    "values": st.one_of(st.lists(J_NUM, max_size=4), WRONG),
    "n_max": J_INT, "horizon": J_INT})
SWEEP = st.fixed_dictionaries(
    {"kind": st.sampled_from(["profit", "hashrate", "malicious-cost", "x"])},
    optional={"attack": ATTACK, "grid": GRID})

NAMES = st.lists(st.sampled_from(["n0", "n1", "n2", "attacker", "z"]),
                 max_size=3)
SCENARIO = st.fixed_dictionaries({}, optional={
    "protocol": st.sampled_from(["adess", "nakamoto", "pow"]),
    "adess": st.fixed_dictionaries({}, optional={"alpha": J_INT,
                                                 "xi": J_NUM}),
    "attack": ATTACK,
    "mining": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["ce", "stochastic", "x"]),
        "tick": J_NUM}),
    "difficulty": st.fixed_dictionaries(
        {"mode": st.sampled_from(["full", "partial", "epoch", "x"])},
        optional={"beta": J_NUM, "epoch_length": J_INT}),
    "n_honest_nodes": st.one_of(st.integers(-1, 4), st.just(10 ** 8), WRONG),
    "honest_hashrates": st.one_of(
        st.dictionaries(st.sampled_from(["n0", "n1", "z"]), J_NUM), WRONG),
    "delay": J_NUM,
    "delays": st.one_of(st.lists(st.tuples(
        st.sampled_from(["n0", "n1", "attacker"]),
        st.sampled_from(["n0", "n1"]), J_NUM), max_size=2), WRONG),
    "attacker_strategy": st.sampled_from(
        ["paper_optimal", "fixed_growth", "accelerated", "budish", "x"]),
    "growth": J_NUM,
    "eclipse_set": st.one_of(NAMES, WRONG),
    "eclipse_from_honest": st.one_of(NAMES, WRONG),
    "attack_start_height": J_INT,
    "horizon": st.one_of(st.sampled_from([0.5, 10, 40, 1e9]), J_NUM),
    "seed": J_INT,
    "junk": st.just(1)})

CONFIG = object()  # stands for the path of the drawn JSON config
COMMANDS = st.one_of(
    st.tuples(st.just(["simulate"]), SCENARIO, _flags(
        {"--config": st.just(CONFIG)}, {"--seed": INT_TEXT})),
    st.tuples(st.just(["sweep"]), SWEEP,
              _flags({"--config": st.just(CONFIG)}, {})),
    st.tuples(st.just(["security-bound"]), st.none(), _flags(
        {"--k": st.one_of(st.tuples(INTS, INTS).map(
            lambda lh: f"{lh[0]}..{lh[1]}"), st.sampled_from(["3", "a..b"]),
            st.tuples(st.integers(1, 5), st.integers(1, 9)).map(
                lambda lh: f"{lh[0]}..{lh[1]}")),
         "--rho": FLOAT_TEXT, "--lambda": FLOAT_TEXT,
         "--delta-prop": FLOAT_TEXT},
        {"--variant": st.sampled_from(["abs", "literal", "x"])})),
    st.tuples(st.just(["compare-protocols"]), st.none(), _flags(
        {"--horizon": INT_TEXT}, {"--xi": FLOAT_TEXT, **COST})),
    st.tuples(st.just(["min-xi"]), st.none(),
              _flags({"--v": FLOAT_TEXT}, ECON)),
    st.tuples(st.just(["safe-v"]), st.none(),
              _flags({"--xi": FLOAT_TEXT}, ECON)),
    st.tuples(st.just(["profit"]), st.none(), _flags(
        {"--v": FLOAT_TEXT, "--xi": FLOAT_TEXT},
        {"--tau": INT_TEXT, "--n": INT_TEXT, **ECON})),
)
WRITES_FILES = ("simulate", "sweep", "security-bound", "compare-protocols")
#: --out under the run's temporary directory: a fresh path, or a path under
#: a regular file (the drawn config), which no command can make
OUT_PATHS = ("out", "config.json/out")
#: commands whose printed numbers must be finite (a sweep's nan columns
#: mark a penalty that does not deter or a safe value left undefined)
FINITE_OUTPUT = ("profit", "safe-v", "min-xi", "compare-protocols")
NOT_FINITE = re.compile(r"\b(inf|nan)\b")


class Overran(Exception):
    pass


def _overran(signum, frame):
    raise Overran(f"no exit within {DEADLINE} s")


def _run(argv) -> tuple:
    """`main(argv)`'s exit code, stdout and stderr, under the deadline."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse: usage error or --help
                code = e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


# p_B or c near the largest float overflows a revenue, cost or split cost
@example((["profit"], None, ["--v", "1", "--xi", "1", "--pb", "1e308",
                             "--b", "5"]), "out")
@example((["profit"], None, ["--v", "1", "--xi", "1", "--c", "1e308"]), "out")
@example((["safe-v"], None, ["--xi", "1", "--pb", "1e308"]), "out")
@example((["min-xi"], None, ["--v", "1", "--c", "1e308"]), "out")
@example((["compare-protocols"], None, ["--horizon", "20", "--c", "1e308",
                                        "--xi", "1"]), "out")
# --out under a regular file once ended in a NotADirectoryError traceback
@example((["compare-protocols"], None, ["--horizon", "20"]),
         "config.json/out")
@given(COMMANDS, st.sampled_from(OUT_PATHS))
@settings(max_examples=250, deadline=None)
def test_cli_exits_0_1_or_2_without_traceback_in_time(command, out_path):
    head, config, tail = command
    tmp = Path(tempfile.mkdtemp(prefix="adess-cli-"))
    try:
        path = tmp / "config.json"
        path.write_text(json.dumps(config))
        argv = head + [str(path) if tok is CONFIG else tok for tok in tail]
        if head[0] in WRITES_FILES:
            argv += ["--out", str(tmp / out_path)]
        code, out, err = _run(argv)
    finally:
        shutil.rmtree(tmp)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0 and head[0] in FINITE_OUTPUT:
        assert not NOT_FINITE.search(out), (argv, out)
