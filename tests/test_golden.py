"""Golden output digests: a byte-level safety net for fork-choice and
economics refactors.

Each constant is the SHA-256 of outputs recorded before NodeView was
restructured (the three arrival-batching scenarios: before the simulator
batched arrivals per instant; the eclipsed-miners one again when a miner
eclipsed from honest broadcasts began to hear its own blocks; the
shared-views one before receivers with identical links shared a view; the
economics ones before the plan search and the deterrence solver scanned
float rows); a refactor that keeps every output must keep every digest.
Every float sum that feeds an output is a left fold, so they hold on each
CPython from 3.10, like `bench/digests.json`.  The module needs only the
stdlib: `python tests/test_golden.py` checks every digest without pytest,
printing one line each, then replays `NAIVE_SEEDS` configurations through
the simulator and its naive twin (`naive_sim`) and prints one line for
them, exiting 0 or 1.  To re-record after a deliberate output change, print
`digests()`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # run as a script, from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adess import cli
from adess.chain import BlockTree
from adess.economics import AttackParams, brute_force_optimal_plan
from adess.forkchoice import AdessParams, NodeView
from adess.mining import DifficultyRule, Stochastic
from adess.netsim import (ATTACKER, ScenarioConfig, disconnected_node_probe,
                          latency_split_check, run_scenario)

from econ_grids import ACCEPTANCE_04_GRID, ORACLE_GRID
from fuzz_trees import build_random_view
from naive_sim import mismatches


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


BASE = ScenarioConfig(
    protocol="adess",
    adess=AdessParams(alpha=2, xi=1.0),
    attack=AttackParams(alpha=2, xi=1.0, v=11.0),
    horizon=40.0,
)
SPLIT = replace(
    BASE,
    adess=AdessParams(alpha=2, xi=2.0),
    attack=AttackParams(alpha=2, xi=2.0, v=11.0),
    delay=6.0, attacker_strategy="fixed_growth", growth=2.0, horizon=30.0,
)
FOUR_MINERS = dict(
    n_honest_nodes=4, delay=0.3,
    honest_hashrates={"n0": 0.4, "n1": 0.3, "n2": 0.2, "n3": 0.1},
    mining=Stochastic(tick=0.01), horizon=60.0,
)

# arrival batching corner cases: eclipsed miners; a per-link delay table
# whose sums tie (t + 0.3 == t + (0.1 + 0.2) for most t >= 1); nakamoto
ECLIPSED = replace(
    BASE, seed=21, n_honest_nodes=5, delay=0.3,
    honest_hashrates={"n0": 0.4, "n1": 0.3, "n2": 0.2, "n3": 0.1},
    eclipse_from_honest=("n3", "n4"), eclipse_set=("n1",),
    mining=Stochastic(tick=0.01), horizon=40.0)
TIED_DELAYS = replace(
    BASE, seed=22, n_honest_nodes=4, delay=0.3,
    honest_hashrates={"n0": 0.4, "n1": 0.3, "n2": 0.2, "n3": 0.1},
    delays={("n0", "n1"): 0.1 + 0.2, ("n0", "n3"): 0.7,
            ("n1", "n2"): 0.1 + 0.2, ("n2", "n0"): 0.0,
            ("attacker", "n2"): 0.1 + 0.2, ("attacker", "n3"): 0.6},
    mining=Stochastic(tick=0.01), horizon=40.0)
NAKAMOTO_DELAYS = replace(
    BASE, protocol="nakamoto", seed=23, n_honest_nodes=5, delay=0.2,
    honest_hashrates={f"n{i}": 0.2 for i in range(5)},
    delays={("n0", "n4"): 0.5, ("n4", "n0"): 0.5, ("attacker", "n0"): 0.4},
    mining=Stochastic(tick=0.01), horizon=40.0)
# eight nodes, one miner: n1..n4 hear every sender over identical links, n5
# (a slower link from n0), n6 (a slower attacker link) and n7 (eclipsed from
# the attacker) each differently; the attack broadcasts and n7 stays split
SHARED_VIEWS = replace(
    BASE, seed=26, n_honest_nodes=8, delay=0.3, eclipse_set=("n7",),
    delays={("n0", "n5"): 0.6, (ATTACKER, "n6"): 0.5},
    mining=Stochastic(tick=0.01), horizon=40.0)

SCENARIOS = {
    "adess_paper_optimal": lambda: run_scenario(BASE),
    "nakamoto_budish": lambda: run_scenario(replace(
        BASE, protocol="nakamoto", attacker_strategy="budish",
        attack=AttackParams(alpha=2, xi=1.0, v=11.0, epsilon_extra=0.01))),
    "adess_fixed_growth": lambda: run_scenario(replace(
        BASE, attacker_strategy="fixed_growth", growth=1.5, horizon=60.0)),
    "adess_accelerated": lambda: run_scenario(replace(
        BASE, attacker_strategy="accelerated", delay=0.5, n_honest_nodes=2)),
    "adess_stochastic": lambda: run_scenario(replace(
        BASE, mining=Stochastic(tick=0.01), seed=777, horizon=25.0)),
    "nakamoto_stochastic": lambda: run_scenario(replace(
        BASE, protocol="nakamoto", mining=Stochastic(tick=0.01), seed=3)),
    "adess_epoch": lambda: run_scenario(replace(
        BASE, difficulty=DifficultyRule.epoch(10 ** 6))),
    "adess_four_miners": lambda: run_scenario(replace(
        BASE, seed=11, **FOUR_MINERS)),
    "nakamoto_four_miners": lambda: run_scenario(replace(
        BASE, protocol="nakamoto", seed=12, **FOUR_MINERS)),
    "split_fixed_growth": lambda: latency_split_check(SPLIT),
    "split_accelerated": lambda: latency_split_check(
        replace(SPLIT, attacker_strategy="accelerated", growth=None)),
    "adess_eclipsed_miners": lambda: run_scenario(ECLIPSED),
    "adess_tied_delays": lambda: run_scenario(TIED_DELAYS),
    "nakamoto_delays_miners": lambda: run_scenario(NAKAMOTO_DELAYS),
    "adess_shared_views": lambda: run_scenario(SHARED_VIEWS),
}

PROBES = (
    (replace(BASE, attacker_strategy="fixed_growth", growth=1.5,
             n_honest_nodes=2, delay=0.5), (0.0, 1.5, 3.0, 10.0, 35.0)),
    (replace(BASE, seed=11, **FOUR_MINERS), (0.0, 3.0, 10.0, 20.0, 35.0)),
)
VIEW_SEEDS = range(200)
NAIVE_SEEDS = range(300, 330)  # test_naive_sim compares 0..299


def scenario_digest(name: str) -> str:
    rep = SCENARIOS[name]()
    return _sha(rep.to_text() + "\x00" + rep.series_csv())


def probe_digest() -> str:
    return _sha("\n".join(repr(disconnected_node_probe(cfg, t))
                          for cfg, joins in PROBES for t in joins))


def views_digest() -> str:
    """Per-observe (ADESS, Nakamoto) heads and the final ledger of a replay of
    each fuzz tree."""
    h = hashlib.sha256()
    for seed in VIEW_SEEDS:
        source = build_random_view(random.Random(seed))
        view = NodeView(source.params)
        for bid, arrival in source.log.entries[1:]:
            view.observe(source.store.block(bid), arrival)
            h.update(f"{view.adess_canonical()},"
                     f"{view.nakamoto_canonical()};".encode())
        h.update(view.penalty_ledger().encode())
    return h.hexdigest()


# -- economics: full plan searches, profit sweeps, scalar commands ----------

def _cli(argv) -> tuple:
    """`adess` exit code and stdout; stderr is dropped."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _sweep_csv(config: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(config))
        code, _ = _cli(["sweep", "--config", str(path), "--out", tmp])
        return f"{code}\n" + (Path(tmp) / "sweep.csv").read_text()


def _plans(grid) -> str:
    """Each point's plan from the default 11 x 11 x 21 search."""
    return "\n".join(repr(brute_force_optimal_plan(p)) for p in grid)


#: min-xi, safe-v and profit runs; the third min-xi raises SolverFailure
SCALAR_ARGV = (
    ["min-xi", "--v", "11", "--alpha", "1", "--sigma", "1",
     "--delta", "0.999999"],
    ["min-xi", "--v", "25", "--alpha", "3", "--delta", "0.999", "--b", "2"],
    ["min-xi", "--v", "0.34", "--pb", "28.264", "--c", "0.168",
     "--delta", "0.1138", "--alpha", "3", "--b", "1"],
    ["min-xi", "--v", "1e4", "--alpha", "7", "--delta", "1"],
    ["safe-v", "--xi", "1", "--alpha", "2"],
    ["safe-v", "--xi", "0.35", "--alpha", "4", "--sigma", "2",
     "--delta", "0.97", "--b", "3", "--pb", "2"],
    ["profit", "--v", "7", "--xi", "0.6", "--alpha", "4", "--delta", "0.97"],
    ["profit", "--v", "3", "--xi", "1.5", "--tau", "4", "--n", "6",
     "--b", "5", "--pb", "2", "--c", "0.6", "--delta", "0.9"],
)

ECONOMICS = {
    "plans_acceptance_04": lambda: _plans(ACCEPTANCE_04_GRID),
    "plans_oracle_grid": lambda: _plans(ORACLE_GRID),
    "sweep_profit_v": lambda: _sweep_csv({
        "kind": "profit", "attack": {"alpha": 2, "sigma": 1, "xi": 0.8,
                                     "delta": 0.99, "B": 2, "p_B": 1.5},
        "grid": {"param": "v", "start": 0, "stop": 30, "step": 0.75}}),
    "sweep_profit_xi": lambda: _sweep_csv({
        "kind": "profit", "attack": {"alpha": 3, "v": 12.0, "B": 1},
        "grid": {"param": "xi", "start": 0, "stop": 3, "step": 0.125}}),
    # rows whose solver fails print xi_star = nan
    "sweep_profit_solver_failures": lambda: _sweep_csv({
        "kind": "profit", "attack": {"alpha": 1, "p_B": 1.084, "c": 1.57,
                                     "delta": 0.0663},
        "grid": {"param": "v",
                 "values": [0, 0.01, 0.02, 0.03, 0.05, 0.1, 0.5, 2]}}),
    "scalar_commands": lambda: "".join(
        f"{argv}\n{code}\n{out}"
        for argv in SCALAR_ARGV for code, out in [_cli(argv)]),
}


def econ_digest(name: str) -> str:
    return _sha(ECONOMICS[name]())


def digests() -> dict:
    out = {name: scenario_digest(name) for name in SCENARIOS}
    out["probe"] = probe_digest()
    out["views"] = views_digest()
    out.update((name, econ_digest(name)) for name in ECONOMICS)
    return out


GOLDEN = {
    "adess_paper_optimal":
        "20743b04117123ae184dc9b7a47f16ab528adf069a28a5b9e852e3458dcb08fc",
    "nakamoto_budish":
        "011b6797d96dcb0bbffcefdfa14763efe5115eb222cfb3632b4cecd6ea91a7b7",
    "adess_fixed_growth":
        "163c80519fa3d6c3523d3809db6933d5b1e5b53247958dbd8cb16137abaf902c",
    "adess_accelerated":
        "1b93dee885d4f5629d7dd5a6d69a5f1c72dc003d02bbb17a0b54e771742b2a69",
    "adess_stochastic":
        "667345fe4449f1b2d9aee2dee36996c5d916d63b3ef1439dea3b436897ad3af7",
    "nakamoto_stochastic":
        "73898646402afa95ac9fbcb0ae8bd3b5794a24d4149696d1110c20a3bc5b25c9",
    "adess_epoch":
        "2381ee1c2ebc01c3c771ec8ddb7c64e2d8de42578e3dfe34c911f8a3b155869d",
    "adess_four_miners":
        "50a466939b50087f86e5c820cf421feabb29eba8310cf48b3619769be1457f62",
    "nakamoto_four_miners":
        "cadb5e7bc171e12980c2f9a970d4bcf7da02890e12c0b93a4aab936aeec279fd",
    "split_fixed_growth":
        "2133ac85b478a978aa23ae15d98df7681c9cb43ed2cfe02b32ee1a78c58682bb",
    "split_accelerated":
        "071fdfed4e77d4f6176a0041ce4a2dc96982ae377b963307b68daf35ab71e696",
    "adess_eclipsed_miners":
        "7a6a2e3d52b98b00098ce6d0c8e99554e0031ecf72f0b9886cfd4ad57929e3d6",
    "adess_tied_delays":
        "0b783fe106fb52640a2282d7121eeb5128d77b51f9723ab080be3f380d106cd3",
    "nakamoto_delays_miners":
        "b0f43fea9f8d6817d7559bec13df1438f80934a98b3bb6d004764e7da9e7e4f6",
    "adess_shared_views":
        "ef2761096ec2c31e90033cf9112bfc60d9358e4a171e117d3e2323d6bb70feeb",
    "probe":
        "4aa9ba013ec743379c5cd6cce9696debac83d3f4b47aecb254399ac43fea2d17",
    "views":
        "b44f752e034ff5a4f368c604f1344c80bf35f606b7acfb6025ca64fcfe5ff5a6",
    "plans_acceptance_04":
        "45003b2de9056689c694f6e0c1bb4a6d45435287b6213137234333c78cf4f583",
    "plans_oracle_grid":
        "7ecff12359b095da98f81203cbec6e4a698fc4744db57124f992b14c6ce8584e",
    "sweep_profit_v":
        "31e5df0a87537f7ddb7ea0927aebb16e832fde20072836460305dd9f133163b6",
    "sweep_profit_xi":
        "f12ba63998a31950ac383feeb806661a22b350f334a4cb9f9d4463ded19e421d",
    "sweep_profit_solver_failures":
        "82702036e0a323b5db2e080f950ceb9d57f879d9b2c303658f892699dce25e32",
    "scalar_commands":
        "6f08a789aa4698c16dbabe9143e94b3298bb75ab8d01360feb51fa924e9de926",
}


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:  # test_scenario_digest
        metafunc.parametrize("name", sorted(SCENARIOS))
    if "econ" in metafunc.fixturenames:  # test_econ_digest
        metafunc.parametrize("econ", sorted(ECONOMICS))


def test_scenario_digest(name):
    assert scenario_digest(name) == GOLDEN[name]


def test_tied_delays_scenario_ties_arrivals_across_delays():
    # blocks whose fan-out reaches two nodes at one instant by unequal delays
    tree = BlockTree.from_snapshot(run_scenario(TIED_DELAYS).snapshot)
    ties = 0
    for block in tree.blocks.values():
        delays = {TIED_DELAYS.link_delay(block.miner, node)
                  for node in TIED_DELAYS.node_names()}
        ties += len({block.created_at + d for d in delays}) < len(delays)
    assert ties > 10


def test_probe_digest():
    assert probe_digest() == GOLDEN["probe"]


def test_views_digest():
    assert views_digest() == GOLDEN["views"]


def test_econ_digest(econ):
    assert econ_digest(econ) == GOLDEN[econ]


def main() -> int:
    failed = 0
    for name, got in digests().items():
        ok = got == GOLDEN[name]
        failed += not ok
        print(f"{name}: {'ok' if ok else 'MISMATCH ' + got}")
    bad = mismatches(NAIVE_SEEDS)
    failed += bool(bad)
    print(f"naive_sim, {len(NAIVE_SEEDS)} configs: "
          f"{'ok' if not bad else f'MISMATCH at seeds {bad}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
