"""Differential check of NodeView's cached ADESS canonical head against a
from-scratch rescoring of every head, and of the simulator's rule that only
a miner's head change can move its mining groups."""

from __future__ import annotations

import random
from dataclasses import replace

from adess.chain import Block
from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig, _Simulation

from arrivals import per_arrival
from fuzz_trees import build_random_view


def rescored_head(view: NodeView) -> int:
    """Heaviest penalty-free head, ties to the earliest seen, then lowest id,
    scored from scratch with no cached state."""
    eligible = [h for h in view.tree.heads
                if not view.active_penalties(h)]
    return min(eligible, key=lambda h: (-view.adjusted_score(h),
                                        view.log.first_seen[h], h))


def replay_checked(source: NodeView) -> int:
    """Feed `source`'s observation log to a fresh view, comparing the cached
    canonical head with a full rescoring after every observe; returns how
    many queries the cache answered without rescoring."""
    view = NodeView(source.params)
    cached = 0
    for bid, arrival in source.log.entries[1:]:
        view.observe(source.store.block(bid), arrival)
        cached += view._best is not None
        assert view.adess_canonical() == rescored_head(view)
    assert view.adess_canonical() == source.adess_canonical()
    return cached


def forky_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        mining=Stochastic(tick=0.01),
        n_honest_nodes=8,
        honest_hashrates={f"n{i}": 0.125 for i in range(8)},
        delay=0.3, horizon=30.0, seed=seed)


def test_cached_head_matches_rescoring_on_fuzz_trees():
    rng = random.Random(3)
    cached = resets = 0
    for _ in range(150):
        view = build_random_view(random.Random(rng.getrandbits(32)))
        cached += replay_checked(view)
        resets += len(view._resets)
    assert cached > 0 and resets > 0  # both the fast path and re-basing ran


def test_cached_head_matches_rescoring_in_forky_scenarios():
    cached = records = 0
    for seed in range(6):
        sim = _Simulation(forky_config(seed))
        sim.run()
        for view in list(sim.nodes.values()) + [sim.att_obs]:
            cached += replay_checked(view)
            records += len(view.penalty_records())
    assert cached > 0 and records > 0


def test_extending_the_cached_head_moves_it_at_an_equal_score():
    # 1.0 + 1e-20 == 1.0: the child does not outscore the head it extends
    view = NodeView(AdessParams(alpha=2, xi=1.0))
    view.observe(Block(1, 0, 1, 1.0, "", 0.0), 1.0)
    assert view.adess_canonical() == 1
    view.observe(Block(2, 1, 2, 1e-20, "", 0.0), 2.0)
    assert view.adjusted_score(2) == view.adjusted_score(1)
    assert view.adess_canonical() == 2 == rescored_head(view)


def miner_groups(sim: _Simulation) -> dict:
    groups: dict = {}
    for name, rate in sim._miners.items():
        head = sim._canonical[name]
        groups[head] = groups.get(head, 0.0) + rate
    return groups


def test_active_groups_follow_miner_heads_after_every_arrival():
    # half the nodes mine, so non-miner head changes skip the regroup
    cfg = replace(forky_config(5), horizon=40.0, honest_hashrates={
        f"n{i}": 0.25 * (i < 4) for i in range(8)})
    sim = _Simulation(cfg)
    arrivals = 0

    def checked(node, block, arrive):
        nonlocal arrivals
        arrive()
        arrivals += 1
        assert {h: g[0] for h, g in sim._groups.items()} == miner_groups(sim)

    per_arrival(sim, checked)
    skipping = sim.run()
    assert arrivals > 0
    assert any(node not in sim._miners for _, node, _, _ in skipping.series)

    # regrouping after every arrival as well draws nothing more
    sim = _Simulation(cfg)

    def always(node, block, arrive):
        arrive()
        sim._regroup({sim._canonical[m] for m in sim._miners}
                     | set(sim._groups))

    per_arrival(sim, always)
    regrouping = sim.run()
    assert skipping.to_text() == regrouping.to_text()
    assert skipping.series_csv() == regrouping.series_csv()
    # and the per-class runs take the heads exactly as single arrivals do
    plain = _Simulation(cfg).run()
    assert skipping.to_text() == plain.to_text()
    assert skipping.series_csv() == plain.series_csv()
