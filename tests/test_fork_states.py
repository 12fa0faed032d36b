"""Each fork's one state: against the naive oracle on fuzz trees, and in the
split network whose forks a run's statistics will report by state."""

from __future__ import annotations

import random
from collections import Counter

from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig, _Simulation

from fuzz_trees import build_random_view
from test_penalty_oracle import NaiveReplay

STATES = ("resolved", "suppressed", "undecided", "undecidable")


def oracle_state(oracle: NaiveReplay, f) -> str:
    if oracle.undecidable(f):
        return "undecidable"
    if f not in oracle.fired:
        return "undecided"
    return "suppressed" if oracle.fired[f][1] else "resolved"


def test_fork_states_match_the_oracle_on_fuzz_trees():
    rng = random.Random(40)
    seen: Counter = Counter()
    for i in range(300):
        source = build_random_view(random.Random(rng.getrandbits(32)),
                                   shuffled=i % 2 == 1)
        n_synced = (rng.randint(0, len(source.tree.arrivals) - 1)
                    if i % 3 == 0 else 0)
        view = NodeView(source.params, source.store)
        oracle = NaiveReplay(source.params,
                             source.store.block(source.store.genesis_id))
        for j, (bid, arrival) in enumerate(source.tree.arrivals[1:]):
            view.observe(bid, arrival, synced=j < n_synced)
            oracle.step(source.store.block(bid), arrival, j < n_synced)
        states = view.fork_states()
        assert list(states) == oracle.forks()  # in fork-id order
        assert states == {f: oracle_state(oracle, f) for f in oracle.forks()}
        seen.update(states.values())
    assert set(seen) == set(STATES), seen


def split_network(nodes: int, horizon: float) -> _Simulation:
    """Every node mining at 1/nodes, delay 0.3, alpha 2, xi 1, seed 1."""
    sim = _Simulation(ScenarioConfig(
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        mining=Stochastic(tick=0.01), n_honest_nodes=nodes,
        honest_hashrates={f"n{i}": 1 / nodes for i in range(nodes)},
        delay=0.3, horizon=horizon, seed=1))
    sim.run()
    return sim


def test_a_split_network_holds_its_forks_by_state():
    # no digest tells a suppressed fork from an undecided one: the ledger
    # prints records only, and neither state has any
    sim = split_network(8, 800)
    assert len(sim.tree.blocks) - 1 == 4239  # blocks, genesis excluded
    n0 = sim.nodes["n0"]
    assert len(n0.tree.heads) == 164
    states = Counter(n0.fork_states().values())
    assert [states[s] for s in STATES] == [44, 84, 1, 0]
    assert set(states) <= set(STATES)  # and no other state
    recs = n0.penalty_records()
    assert len(recs) == 65
    assert sum(r.deactivated_at is None for r in recs) == 62
