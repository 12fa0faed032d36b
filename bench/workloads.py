"""The benchmark's four workloads: inputs made from a seed, the operations
that run them, and the checks on their outputs.

Each workload is a fixed list of operations (one "round").  The timed loop
replays whole rounds, so a round's traffic (blocks, plan evaluations, sweep
rows, ...) is an exact function of the seed and the size.  Operations call
the package through module attributes (`netsim.run_scenario`, ...) at call
time, so the tracer's wrappers see them.

Why these four: each group of layers does most of the work in exactly one.
  sim_deep    deep chains, 2 heads, one attack fork: BlockTree ancestry walks
  sim_forky   all 8 nodes mine: dozens of forks and heads per view, so
              NodeView.observe / adess_canonical and netsim regrouping
  sim_batch   acceptance-10 batch of small single-node runs: per-run set-up,
              the netsim loop, insert and next_block_time; bypasses any
              chain or fork-choice index
  econ_sweep  acceptance-04 plan-search grid plus an `adess sweep`: only
              economics and cli run
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from adess import cli, economics, netsim
from adess.economics import AttackParams, adess_attack_cost
from adess.forkchoice import AdessParams
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig

WORKLOADS = ("sim_deep", "sim_forky", "sim_batch", "econ_sweep")

#: Seed whose output digests are recorded in digests.json.
DEFAULT_SEED = 1

#: Round sizes.  A full simulation round takes 9 to 20 s on a 2-vCPU
#: machine, so a timed run of 15 s plays it twice (econ_sweep, a 3 s round,
#: four or five times).  Run cost varies widely from seed to seed (the
#: attack's outcome decides whether ancestry walks happen at all), so a round
#: holds many runs.  sim_deep's run cost has two clusters, about 300 and
#: 600-900 ms, and about 30% of runs fall in the cheap one; the round's median
#: moves with that mix, and 33 runs keep its spread over seeds near 8%.
#: sim_forky's run cost is spread continuously (deciles 6 to 91 ms), so its
#: median needs 400 runs to spread less than about 8% over seeds; shorter
#: runs would give more of them per second but fewer forks per view.
#: sim_forky's cost grows faster than linearly with the horizon (going from
#: horizon 100 to 200 multiplies a run's time by about 8), so its horizon is
#: kept short and its round made of many runs instead.  sim_batch needs
#: BATCH_MEAN_MIN_RUNS runs.  `tiny` is for the smoke tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "sim_deep": {"horizon": 1000.0, "runs": 33},
        "sim_forky": {"horizon": 40.0, "runs": 400},
        "sim_batch": {"horizon": 100.0, "runs": 2000},
        "econ_sweep": {"plans": 100, "rows": 500},
    },
    "tiny": {
        "sim_deep": {"horizon": 60.0, "runs": 2},
        "sim_forky": {"horizon": 25.0, "runs": 2},
        "sim_batch": {"horizon": 100.0, "runs": 20},
        "econ_sweep": {"plans": 4, "rows": 10},
    },
}

#: sim_batch: the mean realized cost must be within this share of the
#: closed form (acceptance 10's tolerance), checked once a round has at least
#: BATCH_MEAN_MIN_RUNS runs; the per-run standard deviation is about 10 for a
#: mean of 15, so fewer runs would fail by chance.
BATCH_MEAN_TOL = 0.05
BATCH_MEAN_MIN_RUNS = 2000

PLAN_GRID = dict(tau_max=10, n_extra=10, b_max=20)

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of `text`."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op(NamedTuple):
    """One operation: a call into the package, and a check that maps its
    output to {"digest": str, "ok": bool, traffic counts...}."""

    call: Callable[[], object]
    check: Callable[[object], dict]


def _no_round_check(outcomes: List[dict]) -> List[str]:
    return []


def _batch_mean_check(outcomes: List[dict]) -> List[str]:
    """sim_batch: the mean realized cost against the closed form."""
    costs = [o["realized_cost"] for o in outcomes if "realized_cost" in o]
    if len(costs) < BATCH_MEAN_MIN_RUNS:
        return []
    closed = adess_attack_cost(2, 1.0)
    mean = sum(costs) / len(costs)
    if abs(mean - closed) / closed >= BATCH_MEAN_TOL:
        return [f"mean realized cost {mean!r} not within "
                f"{BATCH_MEAN_TOL:.0%} of {closed!r}"]
    return []


class Workload:
    """A seeded list of operations plus the check on a whole round's
    outcomes, which returns failure messages."""

    def __init__(self, name: str, seed: int, size: str, ops: List[Op],
                 inputs: list, workdir: Optional[Path] = None,
                 round_check: Callable[[List[dict]], List[str]]
                 = _no_round_check):
        self.name = name
        self.seed = seed
        self.size = size
        self.ops = ops
        self.inputs = inputs
        self.workdir = workdir
        self.round_check = round_check

    def expected_digests(self) -> Optional[List[str]]:
        if self.seed != DEFAULT_SEED:
            return None
        recorded = json.loads(DIGESTS_FILE.read_text())
        return recorded.get(self.size, {}).get(self.name)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- simulation workloads ---------------------------------------------------

def _scenario(horizon: float, seed: int, nodes: int, all_mine: bool,
              ) -> ScenarioConfig:
    rates = {f"n{i}": 1.0 / nodes for i in range(nodes)} if all_mine else None
    return ScenarioConfig(
        protocol="adess",
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        mining=Stochastic(tick=0.01),
        n_honest_nodes=nodes,
        honest_hashrates=rates,
        delay=0.3 if nodes > 1 else 0.0,
        horizon=horizon,
        seed=seed,
    )


def _check_report(report) -> dict:
    blocks = report.snapshot.count("\n") - 1  # all but genesis
    return {"digest": digest(report.to_text() + report.series_csv()),
            "ok": True, "blocks": blocks,
            "realized_cost": report.realized_cost}


def _scenario_op(cfg: ScenarioConfig) -> Op:
    return Op(lambda: netsim.run_scenario(cfg), _check_report)


def _sim(name: str, seed: int, size: str) -> Workload:
    spec = SIZES[size][name]
    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in range(spec["runs"])]
    if name == "sim_batch":
        cfgs = [_scenario(spec["horizon"], s, 1, False) for s in seeds]
        check = _batch_mean_check
    else:
        cfgs = [_scenario(spec["horizon"], s, 8, name == "sim_forky")
                for s in seeds]
        check = _no_round_check
    return Workload(name, seed, size, [_scenario_op(c) for c in cfgs], seeds,
                    round_check=check)


# -- economics workload -----------------------------------------------------

def _acceptance_04_grid() -> List[AttackParams]:
    return [AttackParams(v=1.0, p_B=1.0, c=1.0, delta=delta, alpha=alpha,
                         sigma=0, xi=xi)
            for alpha in (2, 3, 4, 5)
            for xi in (0.5, 1.0, 1.5, 2.0, 3.0)
            for delta in (0.9, 0.95, 0.97, 0.99, 0.999)]


#: Plan evaluations in one search: (tau_max+1)(n_extra+1)(b_max+1).
PLAN_EVALS = ((PLAN_GRID["tau_max"] + 1) * (PLAN_GRID["n_extra"] + 1)
              * (PLAN_GRID["b_max"] + 1))


def _plan_op(p: AttackParams) -> Op:
    def check(plan) -> dict:
        return {"digest": digest(repr(plan)), "ok": plan == (0, p.alpha, 0),
                "plan_evals": PLAN_EVALS}
    return Op(lambda: economics.brute_force_optimal_plan(p, **PLAN_GRID),
              check)


def _sweep_op(config: Path, out: Path) -> Op:
    argv = ["sweep", "--config", str(config), "--out", str(out)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(argv)
        return code, printed.getvalue()

    def check(result) -> dict:
        code, printed = result
        csv = (out / "sweep.csv").read_text()
        rows = csv.count("\n") - 1  # all but the header
        return {"digest": digest(csv),
                "ok": code == 0 and printed == f"rows = {rows}\n",
                "sweep_rows": rows}
    return Op(call, check)


def _econ(seed: int, size: str, scratch: Path) -> Workload:
    spec = SIZES[size]["econ_sweep"]
    rng = random.Random(seed)
    grid = _acceptance_04_grid()
    rng.shuffle(grid)
    grid = grid[:spec["plans"]]
    values = sorted(round(rng.uniform(0.0, 20.0), 6)
                    for _ in range(spec["rows"]))
    workdir = Path(tempfile.mkdtemp(prefix="econ_sweep-", dir=scratch))
    config = workdir / "sweep.json"
    config.write_text(json.dumps({
        "kind": "profit", "attack": {"alpha": 2, "xi": 1.0, "v": 5.0},
        "grid": {"param": "v", "values": values}}))
    ops = [_plan_op(p) for p in grid] + [_sweep_op(config, workdir / "out")]
    inputs = [(p.alpha, p.xi, p.delta) for p in grid] + [values]
    return Workload("econ_sweep", seed, size, ops, inputs, workdir)


def build(name: str, seed: int, size: str = "full",
          scratch: Optional[Path] = None) -> Workload:
    """Generate the workload's inputs from `seed`.  `scratch` holds the
    files the sweep reads and writes."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if name == "econ_sweep":
        if scratch is None:
            raise ValueError("econ_sweep needs a scratch directory")
        scratch.mkdir(parents=True, exist_ok=True)
        return _econ(seed, size, scratch)
    return _sim(name, seed, size)
