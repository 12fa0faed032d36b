"""Differential check of NodeView's cached ADESS canonical head against a
from-scratch rescoring of every head, and of the simulator's rule that only
a miner's head change can move its mining groups."""

from __future__ import annotations

import random
from dataclasses import replace

from adess.chain import BlockTree
from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig, _Simulation

from arrivals import per_arrival
from fuzz_trees import build_random_view, out_of_id_order


def rescored_head(view: NodeView) -> int:
    """Heaviest penalty-free head, ties to the earliest seen, then lowest id,
    scored from scratch with no cached state."""
    eligible = [h for h in view.tree.heads
                if not view.active_penalties(h)]
    return min(eligible, key=lambda h: (-view.adjusted_score(h),
                                        view.tree.first_seen[h], h))


def add(view: NodeView, parent: int, difficulty: float) -> int:
    """Write a block under `parent` to the view's store; return its id."""
    return view.store.append_block(parent, difficulty)


def replay_checked(source: NodeView) -> int:
    """Feed `source`'s observation log to a fresh view, comparing the cached
    canonical head with a full rescoring after every observe; returns how
    many queries the cache answered without rescoring."""
    view = NodeView(source.params, source.store)
    cached = 0
    for bid, arrival in source.tree.arrivals[1:]:
        view.observe(bid, arrival)
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
    cached = resets = shuffled = 0
    for i in range(150):  # every third: some siblings out of id order
        view = build_random_view(random.Random(rng.getrandbits(32)),
                                 shuffled=i % 3 == 2)
        cached += replay_checked(view)
        resets += len({r for r, _ in view._index.values() if r is not None})
        shuffled += out_of_id_order(view)
    # both the fast path and re-basing ran, and not only in id order
    assert cached > 0 and resets > 0 and shuffled > 0


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
    view = NodeView(AdessParams(alpha=2, xi=1.0), BlockTree())
    view.observe(add(view, 0, 1.0), 1.0)
    assert view.adess_canonical() == 1
    view.observe(add(view, 1, 1e-20), 2.0)
    assert view.adjusted_score(2) == view.adjusted_score(1)
    assert view.adess_canonical() == 2 == rescored_head(view)


def test_a_penalty_that_misses_the_cached_head_keeps_it():
    # the synced block 3 opens an undecidable fork at 0 beside the heavy head
    # 2; block 6 then decides the fork at 3 against branch 5, away from 2
    view = NodeView(AdessParams(alpha=2, xi=1.0), BlockTree())
    view.observe(add(view, 0, 10.0), 1.0)
    view.observe(add(view, 1, 10.0), 2.0)
    view.observe(add(view, 0, 1.0), 3.0, synced=True)
    view.observe(add(view, 3, 1.0), 4.0)
    view.observe(add(view, 3, 1.0), 5.0)
    assert view.adess_canonical() == 2
    view.observe(add(view, 4, 1.0), 6.0)
    assert [r.child for r in view.penalty_records()] == [5]
    assert view._best == (21.0, 2)  # kept: no rescoring on the next query
    assert view.adess_canonical() == 2 == rescored_head(view)


def test_a_penalty_on_the_cached_heads_branch_clears_it():
    # block 3 takes branch 2 to depth 2 first, penalizing the heavier head 1;
    # being lighter, 3 does not take the cache over
    view = NodeView(AdessParams(alpha=2, xi=1.0), BlockTree())
    view.observe(add(view, 0, 10.0), 1.0)
    view.observe(add(view, 0, 1.0), 2.0)
    assert view.adess_canonical() == 1
    view.observe(add(view, 2, 1.0), 3.0)
    assert [r.child for r in view.penalty_records()] == [1]
    assert view._best is None
    assert view.adess_canonical() == 3 == rescored_head(view)


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
    arrivals = mines = 0

    def checked(nodes, blocks, arrive):
        nonlocal arrivals
        arrive()
        arrivals += 1
        assert {h: g[1] for h, g in sim._groups.items()} == miner_groups(sim)

    # and after every block a group mines, since it redraws at its old rate;
    # `_flush` looks the handler up as it pushes, so this one runs
    on_mine = sim._on_mine

    def mined(head, seq, difficulty, duration):
        nonlocal mines
        live = sim._groups.get(head, (None, None, None))[2] == seq
        on_mine(head, seq, difficulty, duration)
        mines += live
        if live:
            assert ({h: g[1] for h, g in sim._groups.items()}
                    == miner_groups(sim))

    per_arrival(sim, checked)
    sim._on_mine = mined
    skipping = sim.run()
    assert arrivals > 0 and mines > 0
    assert any(node not in sim._miners for _, node, _, _ in skipping.series)

    # regrouping after every arrival as well draws nothing more
    sim = _Simulation(cfg)

    def always(nodes, blocks, arrive):
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
