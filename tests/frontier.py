"""The frontier of admitted simulations: for each network size, the largest
horizon `ScenarioConfig.validate` admits, run once per shape and mining mode,
each point in a fresh interpreter under a fixed timeout.  Stdlib only, and
not a test (pytest does not collect it):

    python3 tests/frontier.py            # every n below: 3 minutes on 2 vCPUs
    python3 tests/frontier.py 8 1000     # only these n

The shapes are every node mining at 1/n and the default single miner (n0).
Every point runs the adess protocol with alpha 2, xi 1, a `paper_optimal`
attacker with v 11, delay 0.3 and seed 1.  Each prints one row: the outcome
(ok, the error's text, or timeout), wall time (the horizon search, set-up
and run), set-up time (`_Simulation`'s construction alone), blocks mined,
series rows and n0's fork count; a failed run reports what it held when it
stopped.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NODES = (8, 12, 16, 20, 30, 50, 100, 300, 1000)
SHAPES = ("all mine", "one miner")
MODES = ("stochastic", "certainty")
TIMEOUT = 60.0  # seconds per point
MEMORY = 2 << 30  # a point's address-space cap: it fails, not the machine


def config(nodes: int, shape: str, mode: str):
    """The point's config at the largest horizon `validate` admits."""
    from adess.economics import AttackParams
    from adess.errors import ConfigError
    from adess.forkchoice import AdessParams
    from adess.mining import CertaintyEquivalent, Stochastic
    from adess.netsim import _MAX_BLOCKS, ScenarioConfig

    rates = ({f"n{i}": 1 / nodes for i in range(nodes)}
             if shape == "all mine" else None)
    mining = Stochastic(tick=0.01) if mode == "stochastic" \
        else CertaintyEquivalent()
    miners = nodes if rates else 1

    def at(horizon: float) -> ScenarioConfig:
        return ScenarioConfig(
            adess=AdessParams(alpha=2, xi=1.0),
            attack=AttackParams(alpha=2, xi=1.0, v=11.0), mining=mining,
            n_honest_nodes=nodes, honest_hashrates=rates, delay=0.3,
            horizon=horizon, seed=1)

    def admitted(horizon: float) -> bool:
        try:
            at(horizon).validate()
        except ConfigError:
            return False
        return True

    horizon = _MAX_BLOCKS / (miners + 1)
    while not admitted(horizon):
        horizon = math.nextafter(horizon, 0.0)
    while admitted(math.nextafter(horizon, math.inf)):
        horizon = math.nextafter(horizon, math.inf)
    return at(horizon)


def point(nodes: int, shape: str, mode: str) -> dict:
    """Run one point in this process: its outcome and what the run held."""
    from adess.errors import AdessError
    from adess.netsim import _Simulation

    start = time.perf_counter()
    cfg = config(nodes, shape, mode)
    built = time.perf_counter()
    sim = _Simulation(cfg)
    setup = time.perf_counter() - built
    try:
        sim.run()
        outcome = "ok"
    except AdessError as e:
        outcome = f"{type(e).__name__}: {e}"
    return {"outcome": outcome, "seconds": time.perf_counter() - start,
            "setup": setup, "blocks": len(sim.tree.blocks) - 1,
            "rows": len(sim.series),
            "forks": len(sim.nodes["n0"].fork_states())}


def run_point(nodes: int, shape: str, mode: str) -> dict:
    """`point` in a fresh interpreter, killed once it passes TIMEOUT."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--point", str(nodes), shape, mode],
            capture_output=True, text=True, timeout=TIMEOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (MEMORY, MEMORY)))
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "seconds": time.perf_counter() - start}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):  # it died: say how
        lines = proc.stderr.strip().splitlines() or ["no output"]
        return {"outcome": lines[-1], "seconds": time.perf_counter() - start}


def main(argv) -> None:
    print("| n | shape | mining | horizon | outcome | wall s | set-up s "
          "| blocks | rows | n0 forks |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for n, shape, mode in itertools.product(
            [int(n) for n in argv] or NODES, SHAPES, MODES):
        horizon = config(n, shape, mode).horizon
        row = run_point(n, shape, mode)
        print(f"| {n} | {shape} | {mode} | {horizon:.3f} | {row['outcome']} "
              f"| {row['seconds']:.2f} | {format(row.get('setup', '-'), '.3')} "
              f"| {row.get('blocks', '-')} | "
              f"{row.get('rows', '-')} | {row.get('forks', '-')} |",
              flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    if sys.argv[1:2] == ["--point"]:
        print(json.dumps(point(int(sys.argv[2]), *sys.argv[3:5])))
    else:
        main(sys.argv[1:])
