"""Discrete-event simulator tests: scenario matrix, determinism, probes.

The frozen numbers below follow from hand-traced certainty-equivalent
schedules: with full difficulty adjustment an honest unit-hashrate group
produces one block per time unit, and a growth-g attacker block n costs
c * g^(n+1) * (duration 1/g) at difficulty g^n.
"""

from __future__ import annotations

import heapq
import random
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from types import SimpleNamespace

import pytest

from adess import netsim
from adess.chain import BlockTree
from adess.economics import AttackParams
from adess.errors import ConfigError, DomainError
from adess.forkchoice import AdessParams, NodeView
from adess.mining import DifficultyRule, Stochastic, adjust_difficulty
from adess.netsim import (ATTACKER, ScenarioConfig, _fold, _table,
                          _Simulation, accelerated_rate,
                          disconnected_node_probe, latency_split_check,
                          run_scenario)

import frontier
from arrivals import per_arrival, stretches
from naive_sim import NaiveSimulation, random_config, run_naive
from test_forkchoice_canonical import forky_config
from test_penalty_oracle import NaiveReplay


def path(tree: BlockTree, bid: int) -> set:
    """bid and every ancestor up to and including genesis."""
    out = set()
    while bid is not None:
        out.add(bid)
        bid = tree.block(bid).parent
    return out


def adess_cfg(**kw) -> ScenarioConfig:
    base = dict(
        protocol="adess",
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        horizon=40.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


# -- deterministic baseline scenario ------------------------------------------

def test_adess_paper_optimal_run():
    rep = run_scenario(adess_cfg())
    assert rep.attack_succeeded
    assert rep.attacker_blocks == 4            # boundary blocks for N=2, xi=1
    assert rep.realized_cost == pytest.approx(15.0)   # (2+4+8+16) / 2
    assert rep.conveyed_time == pytest.approx(4.0)
    assert rep.broadcast_time == pytest.approx(4.0)
    assert rep.boundary_crossing_time == pytest.approx(4.0)
    assert rep.realized_revenue == pytest.approx(15.0)  # v + 4 p_B, delta = 1
    fork = BlockTree.from_snapshot(rep.snapshot).block(rep.fork_block)
    assert fork.height == 2


def test_victim_stays_on_incumbent_until_broadcast():
    rep = run_scenario(adess_cfg())
    tree = BlockTree.from_snapshot(rep.snapshot)
    attacker_blocks = {b.id for b in tree.blocks.values()
                       if b.miner == ATTACKER}
    assert len(attacker_blocks) == rep.attacker_blocks
    for t, node, head, height in rep.series:
        on_attack = any(b in attacker_blocks for b in path(tree, head))
        if t < rep.broadcast_time:
            assert not on_attack
    # and the final victim head does descend the attacker chain
    final_head = rep.per_node_head["n0"]
    assert any(b in attacker_blocks for b in path(tree, final_head))


def test_nakamoto_budish_attack():
    cfg = adess_cfg(protocol="nakamoto", attacker_strategy="budish",
                    attack=AttackParams(alpha=2, xi=1.0, v=11.0,
                                        epsilon_extra=0.01))
    rep = run_scenario(cfg)
    assert rep.attack_succeeded
    # one extra block beyond N is needed for a strict cumdiff lead
    assert rep.attacker_blocks == 3
    assert rep.broadcast_time == pytest.approx(4.99, abs=0.02)
    assert rep.realized_cost == pytest.approx(3.01, abs=0.02)


def test_report_text_and_csv_shapes():
    rep = run_scenario(adess_cfg())
    text = rep.to_text()
    assert "[run]" in text and "[heads]" in text and "[tree]" in text
    assert "attack_succeeded = True" in text
    csv = rep.series_csv()
    assert csv.splitlines()[0] == "time,node,head,height"
    assert len(csv.splitlines()) == len(rep.series) + 1
    # the tree section replays losslessly, and the whole report parses to
    # it: its [run] and [heads] lines are not block lines
    back = BlockTree.from_snapshot(text)
    assert back.snapshot() == rep.snapshot


def test_zero_latency_nodes_agree():
    cfg = adess_cfg(n_honest_nodes=3,
                    honest_hashrates={"n0": 0.5, "n1": 0.3, "n2": 0.2})
    rep = run_scenario(cfg)
    assert len(set(rep.per_node_head.values())) == 1


def test_eclipsed_node_keeps_incumbent_chain():
    cfg = adess_cfg(n_honest_nodes=2,
                    honest_hashrates={"n0": 1.0, "n1": 0.0},
                    eclipse_set=("n1",))
    rep = run_scenario(cfg)
    assert rep.attack_succeeded and rep.split_persists
    tree = BlockTree.from_snapshot(rep.snapshot)
    attacker_blocks = {b.id for b in tree.blocks.values()
                       if b.miner == ATTACKER}
    n1_path = path(tree, rep.per_node_head["n1"])
    assert not (n1_path & attacker_blocks)


def test_miner_eclipsed_from_honest_builds_on_its_own_blocks():
    cfg = adess_cfg(n_honest_nodes=2, honest_hashrates={"n0": 1.0, "n1": 0.5},
                    eclipse_from_honest=("n1",), horizon=10.0)
    tree = BlockTree.from_snapshot(run_scenario(cfg).snapshot)
    own = sorted((b for b in tree.blocks.values() if b.miner == "n1"),
                 key=lambda b: b.height)
    # each of n1's blocks extends its previous one, not genesis again
    assert len(own) > 1
    assert [b.parent for b in own] == [0] + [b.id for b in own[:-1]]


# -- attacker pacing -----------------------------------------------------------

def test_accelerated_rate_examples():
    assert accelerated_rate(1.0, 10, 0.0) == pytest.approx(2.0)
    assert accelerated_rate(1.0, 10, 1.0) == pytest.approx(2.2)
    with pytest.raises(ValueError):
        accelerated_rate(1.0, 0, 1.0)


def test_subthreshold_growth_never_crosses():
    # 1 + 0.99 < 1 + xi: over a long race the deficit accumulates and the
    # secret chain never reaches the canonical boundary
    cfg = adess_cfg(
        adess=AdessParams(alpha=300, xi=1.0),
        attack=AttackParams(alpha=300, xi=1.0, v=11.0),
        attacker_strategy="fixed_growth", growth=0.99, horizon=320.0)
    rep = run_scenario(cfg)
    assert not rep.attack_succeeded
    assert rep.boundary_crossing_time is None
    tree = BlockTree.from_snapshot(rep.snapshot)
    attacker_blocks = {b.id for b in tree.blocks.values()
                       if b.miner == ATTACKER}
    n0_path = path(tree, rep.per_node_head["n0"])
    assert not (n0_path & attacker_blocks)


def test_an_attacker_hashrate_that_underflows_to_zero_stalls_the_attacker():
    # growth -0.5 halves the hashrate each block, from the fork's difficulty
    # 0.001: block 1,065's is 0.0, though the plan's last difficulty per
    # unit at the fork, 0.5 ** 1,070, is not; the run, which once stalled
    # after 1,064 attacker blocks, is refused at that honest scale
    cfg = ScenarioConfig(protocol="nakamoto", attacker_strategy="fixed_growth",
                         attack=AttackParams(alpha=6, xi=177.3), growth=-0.5,
                         honest_hashrates={"n0": 0.001}, horizon=4000.0)
    assert cfg.attacker_plan() == (0.5, 1070)
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        run_scenario(cfg)
    # the backstop: a next hashrate of 0.0 stalls the attacker, queueing
    # no block and raising nothing
    sim = _Simulation(replace(cfg, honest_hashrates=None))
    sim.fork_block = sim.tree.genesis_id
    sim._retargets[sim.fork_block] = (5e-324, None)  # x 0.5 rounds to 0.0
    queued = list(sim._heap)
    sim._schedule_attacker_block(sim.fork_block)
    assert sim._heap == queued


# -- latency split -------------------------------------------------------------

def split_cfg(**kw) -> ScenarioConfig:
    base = dict(
        protocol="adess",
        adess=AdessParams(alpha=2, xi=2.0),
        attack=AttackParams(alpha=2, xi=2.0, v=11.0),
        delay=6.0,
        attacker_strategy="fixed_growth",
        growth=2.0,
        horizon=30.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_latency_split_persists():
    rep = latency_split_check(split_cfg())
    assert rep.split_persists
    assert rep.per_node_head["n0"] != rep.per_node_head["n1"]


def test_latency_split_heals_with_accelerated_pacing():
    rep = latency_split_check(split_cfg(attacker_strategy="accelerated",
                                        growth=None))
    assert not rep.split_persists


def test_latency_split_requires_delay():
    rep = latency_split_check(split_cfg(delay=0.0))
    assert not rep.split_persists


def test_latency_split_guard_rails():
    with pytest.raises(ConfigError):
        latency_split_check(split_cfg(protocol="nakamoto"))
    with pytest.raises(ConfigError):
        latency_split_check(split_cfg(attacker_strategy="paper_optimal"))


# -- determinism ---------------------------------------------------------------

def test_stochastic_replay_is_bit_identical():
    cfg = adess_cfg(mining=Stochastic(tick=0.01), seed=777, horizon=25.0)
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a.to_text() == b.to_text()
    assert a.series_csv() == b.series_csv()


def test_different_seeds_differ():
    texts = {run_scenario(adess_cfg(mining=Stochastic(tick=0.01), seed=s,
                                    horizon=25.0)).to_text()
             for s in range(4)}
    assert len(texts) > 1


# -- configuration validation --------------------------------------------------

def test_config_errors():
    bad = [
        dict(protocol="pow"),
        dict(attacker_strategy="nope"),
        dict(attacker_strategy="fixed_growth"),  # growth missing
        dict(growth=7.5),  # growth under a strategy that ignores it
        dict(horizon=0.0),
        dict(n_honest_nodes=0),
        dict(n_honest_nodes=netsim._MAX_NODES + 1),
        dict(n_honest_nodes=2.0),
        dict(n_honest_nodes="2"),
        dict(honest_hashrates={"n0": -1.0}),
        dict(honest_hashrates={"n0": 0.0}),
        dict(n_honest_nodes=1, honest_hashrates={"n9": 1.0}),
        dict(delay=-1.0),
        dict(attack_start_height=0),
        dict(attack_start_height=2.5),
        dict(attack=AttackParams(alpha=5, xi=1.0)),  # depth mismatch
        dict(attack=AttackParams(alpha=2, xi=2.0)),  # penalty mismatch
        dict(attack=AttackParams(alpha=2, xi=1.0, v=11.0, B=7)),  # unread
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            adess_cfg(**kw).validate()
    adess_cfg().validate()


def test_config_rejects_non_finite_values_before_any_event():
    nan, inf = float("nan"), float("inf")
    bad = [
        dict(horizon=inf),
        dict(horizon=nan),  # run_scenario hangs on it
        dict(horizon=1e9),  # finite, but far more blocks than _MAX_BLOCKS
        dict(delay=nan),
        dict(delay=inf),
        dict(delays={(ATTACKER, "n0"): -1.0}),
        dict(delays={("n0", "n0"): nan}),
        dict(honest_hashrates={"n0": inf}),  # run_scenario hangs on it
        dict(honest_hashrates={"n0": nan}),
        dict(attacker_strategy="fixed_growth", growth=nan),
        # attack plans that cannot run: a negative hashrate, a difficulty
        # that overflows before the block target (the accelerated one also
        # overflows the target itself), and one that underflows to zero
        dict(attacker_strategy="fixed_growth", growth=-2.0),
        dict(attacker_strategy="fixed_growth", growth=1e300),
        dict(adess=AdessParams(alpha=2, xi=1e300),
             attack=AttackParams(alpha=2, xi=1e300, v=11.0)),
        dict(attacker_strategy="accelerated", delay=1e308),
        dict(attacker_strategy="fixed_growth", growth=-0.5,
             adess=AdessParams(alpha=6, xi=200.0),
             attack=AttackParams(alpha=6, xi=200.0, v=11.0)),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            adess_cfg(**kw).validate()
        with pytest.raises(ConfigError):
            run_scenario(adess_cfg(**kw))


@pytest.mark.parametrize("kw", [
    # the draw's inf * tick / inf was NaN: "cannot convert float NaN"
    dict(n_honest_nodes=2, honest_hashrates={"n0": 1e308, "n1": 1e308},
         mining=Stochastic(tick=0.01)),
    # the attacker's difficulty, 2 ** 12 times the fork's, overflowed
    dict(honest_hashrates={"n0": 1e308}),
])
def test_overflowing_hashrates_fail_before_the_first_event(kw):
    cfg = ScenarioConfig(horizon=10.0, **kw)
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_an_attack_block_target_past_the_plan_bound_fails_before_any_event():
    # ceil(N(1+xi)) above 100,000 is more blocks than a run may mine; with
    # xi = 0 the attacker's difficulty stays 1, so only the bound refuses it
    for strategy in ("paper_optimal", "fixed_growth", "accelerated"):
        cfg = ScenarioConfig(protocol="nakamoto", attacker_strategy=strategy,
                             attack=AttackParams(alpha=100_001, xi=0.0),
                             growth=0.0 if strategy == "fixed_growth" else
                             None, delay=0.5, horizon=10.0)
        with pytest.raises(ConfigError, match="at most 100000"):
            cfg.validate()
        with pytest.raises(ConfigError, match="at most 100000"):
            run_scenario(cfg)
    ScenarioConfig(protocol="nakamoto", horizon=10.0,
                   attack=AttackParams(alpha=100_000, xi=0.0)).validate()


def test_a_run_mining_faster_than_the_unit_pace_stops_at_the_block_bound(
        monkeypatch):
    monkeypatch.setattr(netsim, "_MAX_BLOCKS", 500)
    # no retarget in the run, so hashrate 50 mines 50 blocks per unit
    fast = adess_cfg(honest_hashrates={"n0": 50.0},
                     difficulty=DifficultyRule.epoch(10 ** 6))
    fast.validate()  # 40 x 2 blocks at the unit pace
    with pytest.raises(DomainError):
        run_scenario(fast)
    with pytest.raises(ConfigError):
        adess_cfg(horizon=251.0).validate()  # 502 blocks at the unit pace
    adess_cfg(horizon=250.0).validate()


def test_a_wide_run_stops_at_the_series_row_bound(monkeypatch):
    # a block moves each node's head at most once: rows <= blocks x nodes
    monkeypatch.setattr(netsim, "_MAX_SERIES_ROWS", 200)
    wide = adess_cfg(n_honest_nodes=10)  # 29 blocks, 260 rows unbounded
    with pytest.raises(DomainError, match="more than 20 blocks"):
        run_scenario(wide)
    rep = run_scenario(replace(wide, n_honest_nodes=6))  # up to 33 blocks
    assert 100 < len(rep.series) <= 200
    monkeypatch.undo()  # at the real bound, 10 nodes keep 100,000 blocks
    assert _Simulation(wide)._max_blocks == netsim._MAX_BLOCKS


def test_config_rejects_eclipse_sets_naming_unknown_nodes():
    for kw in (dict(eclipse_set=("n7",)), dict(eclipse_from_honest=("n7",)),
               dict(eclipse_set=(ATTACKER,))):
        with pytest.raises(ConfigError):
            adess_cfg(n_honest_nodes=2, **kw).validate()
    adess_cfg(n_honest_nodes=2, eclipse_set=("n1",),
              eclipse_from_honest=("n0",)).validate()


def test_config_rejects_delays_on_unknown_links():
    # a sender is a node or the attacker, a receiver a node
    for link in (("n0", "n9"), ("attackr", "n1"), ("n1", "att_obs"),
                 ("n1", ATTACKER), ("att_obs", "n0")):
        with pytest.raises(ConfigError, match="delays"):
            adess_cfg(n_honest_nodes=2, delays={link: 0.5}).validate()
    adess_cfg(n_honest_nodes=2, delays={(ATTACKER, "n1"): 0.5,
                                        ("n1", "n1"): 0.0}).validate()


def test_epoch_rule_scenario_runs():
    cfg = adess_cfg(difficulty=DifficultyRule.epoch(10 ** 6))
    rep = run_scenario(cfg)
    assert rep.attack_succeeded


@pytest.mark.parametrize("kw", [
    dict(difficulty=DifficultyRule.epoch(3)),
    dict(difficulty=DifficultyRule.epoch(1), attacker_strategy="fixed_growth",
         growth=0.5),
    dict(difficulty=DifficultyRule.epoch(3), n_honest_nodes=4, delay=0.3,
         honest_hashrates={"n0": 0.4, "n1": 0.3, "n2": 0.2, "n3": 0.1},
         mining=Stochastic(tick=0.01), horizon=60.0, seed=13),
    dict(difficulty=DifficultyRule.epoch(5), n_honest_nodes=3, delay=0.5,
         honest_hashrates={"n0": 0.5, "n1": 0.3, "n2": 0.2},
         mining=Stochastic(tick=0.01), attacker_strategy="accelerated"),
    dict(difficulty=DifficultyRule.partial(0.5), mining=Stochastic(),
         seed=5),
])
def test_each_block_retargets_from_its_parents_epoch(monkeypatch, kw):
    # every block's difficulty is adjust_difficulty of its parent's
    # difficulty and hashrate and of the durations on that chain since its
    # last retarget, mid-epoch and at each epoch's close
    cfg = adess_cfg(**kw)
    mined = {}  # block -> (parent, difficulty, hashrate, duration)
    add = _Simulation._add_block

    def recording(self, parent, difficulty, miner, hashrate, duration):
        bid = add(self, parent, difficulty, miner, hashrate, duration)
        mined[bid] = (parent, difficulty, hashrate, duration)
        return bid

    monkeypatch.setattr(_Simulation, "_add_block", recording)
    run_scenario(cfg)
    rule, E = cfg.difficulty, cfg.difficulty.epoch_length
    since = {0: []}  # block -> durations on its chain since the last retarget
    retargets = 0
    for bid, (parent, difficulty, _, duration) in mined.items():
        if parent == 0:
            assert difficulty == 1.0
        else:
            _, prev, hashrate, _ = mined[parent]
            assert difficulty == adjust_difficulty(prev, hashrate, rule,
                                                   since[parent]), bid
            retargets += difficulty != prev
        closed = len(since[parent]) >= E  # the parent retargeted
        since[bid] = ([] if closed else since[parent]) + [duration]
    assert retargets >= 3


def test_epoch_history_memory_grows_linearly():
    def peak(horizon: float) -> int:
        tracemalloc.start()
        try:
            run_scenario(adess_cfg(difficulty=DifficultyRule.epoch(10 ** 6),
                                   horizon=horizon))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000.0) <= 5 * peak(1000.0)


# -- late-joining node probe ---------------------------------------------------

def test_probe_connected_from_start_matches_reference():
    probe = disconnected_node_probe(adess_cfg(), join_time=0.0)
    assert not probe.undecidable_forks
    assert probe.inferred_head == probe.reference_head


def test_probe_late_join_is_undecidable_but_infers_reference():
    probe = disconnected_node_probe(adess_cfg(), join_time=10.0)
    assert probe.undecidable_forks
    assert probe.inferred_head == probe.reference_head


def late_replay(cfg: ScenarioConfig, join_time: float) -> tuple:
    """Run `cfg`, then replay n0's log into a fresh view and into the naive
    oracle, which marks a block synced when it arrived before the join;
    returns (sim, view, oracle)."""
    sim = _Simulation(cfg)
    sim.run()
    view = NodeView(cfg.adess, sim.tree)
    oracle = NaiveReplay(cfg.adess, sim.tree.block(sim.tree.genesis_id))
    for bid, arrival in sim.nodes["n0"].tree.arrivals[1:]:
        view.observe(bid, arrival)
        oracle.step(sim.tree.block(bid), arrival, arrival < join_time)
    return sim, view, oracle


def test_probe_undecidable_forks_match_the_oracle():
    # a fork is undecidable when the block that opened it reached n0 before
    # the join, so a late node got it by bulk sync, without its order
    configs = [random_config(random.Random(seed)) for seed in range(40)]
    configs += [forky_config(seed) for seed in range(5)]
    kinds: Counter = Counter()
    for cfg in configs:
        for join_time in (0.0, cfg.horizon / 2, cfg.horizon + 1):
            _, _, oracle = late_replay(cfg, join_time)
            want = [f for f in oracle.forks() if oracle.undecidable(f)]
            probe = disconnected_node_probe(cfg, join_time)
            assert probe.undecidable_forks == want, (cfg, join_time)
            kinds[bool(want)] += 1
    assert kinds[True] and kinds[False], kinds


def searched_head(cfg: ScenarioConfig, join_time: float) -> tuple:
    """The probe's inferred head as first written, and the rule that gave
    it: with no undecidable fork the ADESS head (no block was synced that
    opened a fork, so the plain replay is the late node's view); else, once
    a block arrived at or after the join, the first head in id order that
    the last arrival is an ancestor of; else the Nakamoto head."""
    sim, late, oracle = late_replay(cfg, join_time)
    if not any(map(oracle.undecidable, oracle.forks())):
        return late.adess_canonical(), "decidable"
    post_join = sum(arrival >= join_time
                    for _, arrival in late.tree.arrivals[1:])
    last = late.tree.arrivals[-1][0]
    for head in sorted(late.tree.heads) if post_join else ():
        if sim.tree.is_ancestor(last, head):
            return head, "searched"
    return late.nakamoto_canonical(), "fallback"


def test_probe_head_matches_the_head_search():
    # the last block heard is a leaf, so no other head lies above it
    configs = [random_config(random.Random(seed)) for seed in range(30)]
    configs += [forky_config(seed) for seed in range(5)]
    rules: Counter = Counter()
    for cfg in configs:
        for join_time in (0.0, cfg.horizon / 2, cfg.horizon + 1):
            head, rule = searched_head(cfg, join_time)
            probe = disconnected_node_probe(cfg, join_time)
            assert probe.inferred_head == head, (cfg, join_time)
            rules[rule] += 1
    assert set(rules) == {"decidable", "searched", "fallback"}, rules


def test_probe_refuses_a_join_time_that_is_not_a_finite_number(monkeypatch):
    # a NaN join time read as "nothing synced", and a string raised a raw
    # TypeError after the whole run; now neither builds the simulation
    def no_simulation(cfg):
        raise AssertionError("the simulation was built")

    monkeypatch.setattr(netsim, "_Simulation", no_simulation)
    for bad in (float("nan"), "10"):
        with pytest.raises(ConfigError, match="join_time must be a finite"):
            disconnected_node_probe(adess_cfg(), join_time=bad)


# -- views shared by receivers with identical links ---------------------------

def run_with_private_views(cfg: ScenarioConfig) -> tuple:
    """Run `cfg` one run (see `per_arrival`) at a time while also feeding
    each node a private view, block by block, checking after every run that
    the rows the simulator took from the shared view are the private views'
    head changes; and feed att_obs, through its own handler, a private view
    while it is read, checking its head.  Checks that the run's output is
    the per-class runs' own; returns (sim, orphans)."""
    sim = _Simulation(cfg)
    private = {name: NodeView(cfg.adess, sim.tree) for name in sim._canonical}
    orphans = reads = 0

    def checked(nodes, blocks, arrive):
        nonlocal orphans
        rows = []
        for node in nodes:
            view, head = private[node], sim._canonical[node]
            for bid in blocks:
                orphans += sim.tree.block(bid).parent not in view.tree.children
                view.observe(bid, sim.time)
                if sim._node_canonical(view) != head:
                    head = sim._node_canonical(view)
                    rows.append((sim.time, node, head,
                                 sim.tree.block(head).height))
        start = len(sim.series)
        arrive()
        assert sim.series[start:] == rows
        for node in nodes:
            assert sim._canonical[node] == sim._node_canonical(private[node])

    on_att_obs = sim._on_att_obs

    def att_obs_checked(bid):
        nonlocal reads
        read = sim._obs_read
        on_att_obs(bid)
        if read:
            reads += 1
            view = private["att_obs"]
            view.observe(bid, sim.time)
            assert sim._canonical["att_obs"] == sim._node_canonical(view)

    per_arrival(sim, checked)
    sim._on_att_obs = att_obs_checked
    report = sim.run()
    plain = run_scenario(cfg)
    assert reads > 0
    assert report.to_text() == plain.to_text()
    assert report.series_csv() == plain.series_csv()
    return sim, orphans


def one_miner_cfg(**kw) -> ScenarioConfig:
    return adess_cfg(n_honest_nodes=8, delay=0.3, mining=Stochastic(tick=0.01),
                     **kw)


def test_shared_views_match_private_views_through_a_broadcast():
    sim, _ = run_with_private_views(one_miner_cfg(seed=1, horizon=60.0))
    # n1..n7 share a view, and the attack's blocks reach them in one batch
    assert sim.broadcast_time is not None and len(sim.attacker_chain) > 1
    assert sim.nodes["n1"] is sim.nodes["n7"]


def test_shared_views_match_private_views_under_eclipses():
    sim, _ = run_with_private_views(one_miner_cfg(
        seed=2, horizon=40.0, eclipse_set=("n3",)))
    assert sim.broadcast_time is not None
    assert sim.nodes["n3"] is not sim.nodes["n2"] is sim.nodes["n1"]
    sim, _ = run_with_private_views(adess_cfg(
        n_honest_nodes=6, delay=0.3, mining=Stochastic(tick=0.01), seed=3,
        honest_hashrates={"n0": 0.5, "n1": 0.3, "n4": 0.2},
        eclipse_from_honest=("n4", "n5")))
    assert sim.nodes["n5"] is not sim.nodes["n2"] is sim.nodes["n3"]


def test_shared_views_match_private_views_with_orphans():
    # n0's blocks reach n4..n7 late, after n1's children of them
    slow = {("n0", f"n{i}"): 2.0 for i in range(4, 8)}
    sim, orphans = run_with_private_views(one_miner_cfg(
        seed=4, horizon=40.0, honest_hashrates={"n0": 0.5, "n1": 0.5},
        delays=slow))
    assert sim.nodes["n2"] is sim.nodes["n3"]
    assert sim.nodes["n4"] is sim.nodes["n7"] is not sim.nodes["n3"]
    assert orphans > 0


@pytest.mark.parametrize("strategy", ["paper_optimal", "accelerated",
                                      "budish"])
@pytest.mark.parametrize("nodes", [8, 1])
def test_feeding_att_obs_throughout_changes_no_output(monkeypatch, strategy,
                                                      nodes):
    cfg = replace(one_miner_cfg(seed=2, horizon=60.0,
                                attacker_strategy=strategy),
                  n_honest_nodes=nodes, delay=0.3 * (nodes > 1))

    def heard_run(sim):  # the report, and the blocks att_obs observed
        heard, observe = [], sim.att_obs.observe
        sim.att_obs.observe = lambda bid, t: heard.append(bid) or observe(
            bid, t)
        return sim.run(), heard

    skipping = _Simulation(cfg)
    skipped, skipped_heard = heard_run(skipping)
    monkeypatch.setattr(_Simulation, "_obs_read", property(  # always read
        lambda self: True, lambda self, value: None), raising=False)
    fed, fed_heard = heard_run(_Simulation(cfg))
    assert skipped.attack_succeeded and skipped.broadcast_time is not None
    assert skipped.to_text() == fed.to_text()
    assert skipped.series_csv() == fed.series_csv()
    # att_obs, a view of its own in no run, stops observing once it is no
    # longer read
    assert len(fed_heard) > len(skipped_heard)
    assert all(run[0] is not skipping.att_obs for run in all_runs(skipping))


def test_distinct_views_per_benchmark_shape():
    def distinct(cfg):  # node views; att_obs has its own
        sim = _Simulation(cfg)
        assert sim.att_obs not in sim.nodes.values()
        return len({id(view) for view in sim.nodes.values()})

    deep = one_miner_cfg(horizon=1000.0)
    assert distinct(deep) == 2  # n0, n1..n7
    assert distinct(adess_cfg(horizon=100.0)) == 1  # n0
    assert distinct(replace(deep, horizon=40.0, honest_hashrates={
        f"n{i}": 0.125 for i in range(8)})) == 8  # each miner hears itself


def all_runs(sim: _Simulation) -> list:
    return [run for _, runs in stretches(sim) for run in runs]


def test_each_receiver_run_is_built_once():
    sim = _Simulation(forky_config(0))
    built: dict = {}  # receiver names -> ids of the run objects naming them
    for run in all_runs(sim):
        built.setdefault(tuple(m[0] for m in run[1]), set()).add(id(run))
    assert len(built) == 8  # n0..n7, each its own class
    assert all(len(ids) == 1 for ids in built.values())
    assert len(all_runs(sim)) == 72  # 9 senders, 8 runs each


@pytest.mark.parametrize("n, delay, eclipsed, every, classes", [
    (600, 0.0, False, 1, 1),  # one run of 600 nodes per sender
    (600, 0.3, False, 1, 600),
    (1000, 0.3, True, 1, 1000),  # each node hears only itself
    # the even-numbered nodes mine, so a class of plain nodes holds those
    # next to each other in name order, like n109 and n11
    (1000, 0.3, False, 2, 951)])
def test_wiring_a_wide_network_is_linear_in_its_links(n, delay, eclipsed,
                                                      every, classes):
    # set-up once copied a growing tuple per link and scanned the eclipse
    # tuples per link: 7-9 s for 600 all-mining nodes, 11 s for 1,000 eclipsed
    names = tuple(f"n{i}" for i in range(n))
    cfg = ScenarioConfig(
        n_honest_nodes=n,
        honest_hashrates=dict.fromkeys(names[::every], 1 / n), delay=delay,
        eclipse_set=names * eclipsed, eclipse_from_honest=names * eclipsed)
    start = time.perf_counter()
    sim = _Simulation(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"{elapsed:.2f}s"
    assert len({id(view) for view in sim.nodes.values()}) == classes


def wiring_config(rng: random.Random) -> ScenarioConfig:
    """Up to 10 nodes, one to all of them mining, with link overrides that
    may equal `delay` or a miner's own 0.0, and eclipses; a lone miner is
    often hidden from the others' broadcasts."""
    names = [f"n{i}" for i in range(rng.randint(1, 10))]
    miners = rng.sample(names, min(rng.choice((1, 1, 2, 10)), len(names)))
    return ScenarioConfig(
        n_honest_nodes=len(names), honest_hashrates=dict.fromkeys(miners, 1.0),
        delay=rng.choice((0.0, 0.3)),
        delays={(rng.choice(names + [ATTACKER]), rng.choice(names)):
                rng.choice((0.0, 0.3, 1.0)) for _ in range(rng.randint(0, 6))},
        eclipse_set=tuple(n for n in names if rng.random() < 0.2),
        eclipse_from_honest=tuple(n for n in names if rng.random() < rng.choice(
            (0.0, 0.3, 0.7))))


def test_classes_and_stretches_follow_the_per_node_links():
    # set-up keys a node by how its links differ from hearing every sender
    # at `delay`; the naive twin lists every (sender, node) link, so a class
    # is a run of nodes next in name order with equal heard lists
    rng = random.Random(7)
    for _ in range(300):
        cfg = wiring_config(rng)
        sim = _Simulation(cfg)
        links = {sender: [link for link in sender_links if link[1] != "att_obs"]
                 for sender, sender_links in NaiveSimulation(cfg).links.items()}
        heard: dict = {n: [] for n in sorted(cfg.node_names())}
        for sender, sender_links in links.items():
            for delay, name in sender_links:
                heard[name].append((sender, delay))
        assert [list(names) for _, names in groupby(heard, lambda n: id(
            sim.nodes[n]))] == [list(names) for _, names in groupby(
                heard, heard.__getitem__)], cfg
        for sender, sender_links in links.items():
            assert [(delay, [n for run in runs for n, _, _ in run[1]])
                    for delay, runs in sim._wire(sender)] == [
                (delay, [n for _, n in stretch]) for delay, stretch
                in groupby(sender_links, itemgetter(0))], cfg


def test_senders_are_wired_as_they_first_send():
    # the attack never starts, and n2 never finds a block
    sim = _Simulation(one_miner_cfg(
        seed=3, horizon=40.0, attack_start_height=10 ** 6,
        honest_hashrates={"n0": 0.5, "n1": 0.5, "n2": 1e-9}))
    assert sim.run().broadcast_time is None
    miners = {b.miner for b in sim.tree.blocks.values()} - {"genesis"}
    assert set(sim._runs) == miners == {"n0", "n1"}


RATES = (0.1, 1 / 3, 0.7, 0.125, 1e-3, 2.5)


@pytest.mark.parametrize("shape", ["equal", "runs", "alternating",
                                   "singletons", "one miner"])
def test_a_group_rate_is_the_left_fold_of_its_members(shape):
    rng = random.Random(shape)
    for _ in range(100):
        names = sorted(f"n{i}" for i in range(  # name order: n10 before n2
            1 if shape == "one miner" else rng.randint(2, 40)))
        if shape == "runs":  # a rate may come back after another
            rates = []
            while len(rates) < len(names):
                rates += [rng.choice(RATES)] * rng.randint(1, 6)
        else:
            pick = {"equal": [rng.choice(RATES)],
                    "alternating": rng.sample(RATES, 2)}.get(shape)
            rates = [pick[i % len(pick)] if pick else rng.random()
                     for i in range(len(names))]
        rates = dict(zip(names, rates))
        table = _table(rates)  # one exactly when every miner mines at one rate
        assert (table is None) == (len(set(rates.values())) > 1)
        for _ in range(20):
            members = [n for n in names if rng.random() < rng.random()]
            want = 0.0
            for name in members:
                want += rates[name]
            # `validate` folds term by term, a regroup reads the table
            assert repr(_fold(members, rates, table)) == repr(want)
            assert repr(_fold(members, rates, None)) == repr(want)


def test_every_config_run_at_scale_folds_its_groups_from_the_table():
    # the benchmark's shapes (sim_forky: 8 miners at 1/8; sim_deep and
    # sim_batch: one miner), every frontier point, and CI's two 1,000-node
    # configs (every node at 0.001, and every even one at 0.002)
    eight = [f"n{i}" for i in range(8)]
    cfgs = [adess_cfg(n_honest_nodes=8, honest_hashrates=dict.fromkeys(
                eight, 0.125)), adess_cfg(n_honest_nodes=8), adess_cfg()]
    cfgs += [frontier.config(n, shape, mode) for n in frontier.NODES
             for shape in frontier.SHAPES for mode in frontier.MODES]
    cfgs += [ScenarioConfig(n_honest_nodes=1000, delay=0.3, horizon=99.0,
                            honest_hashrates={f"n{i}": rate for i in range(
                                0, 1000, step)})
             for step, rate in ((1, 0.001), (2, 0.002))]
    for cfg in cfgs:
        assert _Simulation(cfg)._table is not None, cfg.n_honest_nodes


@pytest.mark.parametrize("keys", [("n1", "n2", "n0"), ("n0", "n1", "n2")])
def test_admission_folds_the_rates_in_name_order_whatever_their_keys(keys):
    # `sum()` in key order read n1, n2, n0 as 1e-16 + 1e-16 + 1.0, one ulp
    # above 1.0 (as does CPython 3.12's compensated sum in either order), and
    # budish's bound, epsilon_extra x 1e5 blocks, then overflowed; a run
    # folds the rates in name order, to 1.0
    cfg = ScenarioConfig(
        protocol="nakamoto", attacker_strategy="budish",
        attack=AttackParams(epsilon_extra=1.7976931348623158e+303),
        n_honest_nodes=3, horizon=1.0,
        honest_hashrates={n: 1.0 if n == "n0" else 1e-16 for n in keys})
    miners, _ = cfg.validate()
    assert _fold(list(miners), miners, None) == 1.0
    assert run_scenario(cfg).per_node_height == {"n0": 1, "n1": 1, "n2": 1}


def test_an_equal_rate_network_folds_no_rate_one_by_one():
    # every miner's rate is 1/100, so each group reads its rate from the
    # table; folding the members one by one reads each member's rate
    class Counted(dict):
        reads = 0

        def __getitem__(self, name):
            Counted.reads += 1
            return dict.__getitem__(self, name)

    names = [f"n{i}" for i in range(100)]
    sim = _Simulation(adess_cfg(n_honest_nodes=100, delay=0.3, horizon=3.0,
                                honest_hashrates=dict.fromkeys(names, 0.01)))
    sim._miners = Counted(sim._miners)
    report = sim.run()
    moves = len(report.series)  # every node mines, so each row is a regroup
    assert moves > 100 and Counted.reads == 0


@pytest.mark.parametrize("kw", [
    dict(seed=2, eclipse_set=("n3",)),
    dict(seed=4, honest_hashrates={"n0": 0.5, "n1": 0.5},
         delays={("n0", "n3"): 2.0})])
def test_a_class_split_into_several_runs_matches_the_naive_twin(kw):
    # n3 hears a sender unlike n2 and n4, so the nodes that hear alike
    # around it split into two classes, n1..n2 and n4..n7: each view is in
    # at most one run of a stretch
    cfg = one_miner_cfg(horizon=40.0, **kw)
    sim = _Simulation(cfg)
    assert sim.nodes["n2"] is not sim.nodes["n4"] is sim.nodes["n7"]
    assert all(len({id(r[0]) for r in runs}) == len(runs)
               for _, runs in stretches(sim))
    report, naive = sim.run(), run_naive(cfg)
    assert report.to_text() == naive.to_text()
    assert report.series_csv() == naive.series_csv()


def test_a_head_left_by_its_last_miner_keeps_no_member_entry():
    # every head n0 mined on and moved off would keep an empty list
    sim = _Simulation(one_miner_cfg(seed=7, horizon=200.0))
    sim.run()
    assert len(sim.tree.blocks) > 100 and sim._groups
    assert all(members for members, _, _ in sim._groups.values())


# -- the same-instant draw buffer and per-class rows ---------------------------

def test_no_mine_event_superseded_in_its_instant_reaches_the_heap(
        monkeypatch):
    sim = _Simulation(replace(forky_config(5), horizon=40.0))
    drawn, superseded, pushed = {}, {}, []  # mine seq -> instant
    schedule, regroup = sim._schedule, sim._regroup

    def drawing(head, group):  # the one draw step
        schedule(head, group)
        drawn[sim._groups[head][2]] = sim.time

    def tracked(dirty):  # a regroup supersedes what it redraws or drops
        before = {h: g[2] for h, g in sim._groups.items()
                  if g[2] is not None}  # a record not yet drawn has none
        regroup(dirty)
        for head, seq in before.items():
            if sim._groups.get(head, (None, None, None))[2] != seq:
                superseded[seq] = sim.time

    def push(heap, item):
        if item[2] == sim._on_mine:
            pushed.append(item[1])
        heapq.heappush(heap, item)

    monkeypatch.setattr(netsim, "heapq", SimpleNamespace(
        heappush=push, heappop=heapq.heappop))
    sim._schedule, sim._regroup = drawing, tracked
    report = sim.run()
    same_instant = {seq for seq, t in superseded.items() if t == drawn[seq]}
    assert same_instant and len(same_instant) < len(drawn)
    assert not same_instant & set(pushed)
    assert set(pushed) == set(drawn) - same_instant  # the rest all do
    monkeypatch.undo()
    assert report.to_text() == run_scenario(sim.cfg).to_text()


def test_honest_uniforms_match_stochastic_regroup_draws(monkeypatch):
    class Counting(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return super().random()

    draws = 0

    def counted(difficulty, hashrate):
        nonlocal draws
        p, u, tick = draw(difficulty, hashrate)
        draws += p < 1.0
        return p, u, tick

    cfg = replace(forky_config(5), horizon=40.0)
    monkeypatch.setattr(random, "Random", Counting)  # bound at set-up
    sim = _Simulation(cfg)
    draw, sim._draw = sim._draw, counted
    report = sim.run()
    assert draws > 0 and sim.rng_honest.calls == draws
    monkeypatch.undo()
    assert report.to_text() == run_scenario(cfg).to_text()


def test_a_finished_run_is_freed_without_the_cycle_collector():
    # events carry bound handlers: a heap left holding them (here, stale and
    # past-horizon mine events) would tie the run to itself, and its tree and
    # views would wait for a full collection
    sim = _Simulation(replace(forky_config(5), horizon=40.0))
    sim.run()
    ref = weakref.ref(sim)
    del sim
    assert ref() is None


def test_plain_class_rows_are_node_major_as_single_arrivals():
    # n4..n7 mine nothing and hear everyone at 0.3: one plain class; under
    # nakamoto each block of the broadcast moves its head
    cfg = replace(forky_config(5), protocol="nakamoto", horizon=40.0,
                  honest_hashrates={f"n{i}": 0.25 * (i < 4) for i in range(8)})
    sim = _Simulation(cfg)
    batched = []  # rows that one arrive event gave a multi-block plain run
    on_arrive = sim._on_arrive

    def watched(runs, blocks):
        start = len(sim.series)
        on_arrive(runs, blocks)
        if len(blocks) > 1 and any(
                len(members) > 1 and not any(any(m[1:]) for m in members)
                for _, members in runs):
            batched.append(sim.series[start:])

    sim._on_arrive = watched
    report = sim.run()
    assert len(batched) == 1
    plain = [node for _, node, _, _ in batched[0] if node >= "n4"]
    assert plain == [f"n{i}" for i in range(4, 8) for _ in range(3)]
    single = _Simulation(cfg)
    per_arrival(single, lambda nodes, blocks, arrive: arrive())
    replayed = single.run()
    assert single.series == sim.series
    assert replayed.to_text() == report.to_text()


def test_a_draw_that_may_fall_due_at_its_instant_is_pushed_at_once():
    for time, pushed in ((0.0, False), (1e17, True)):  # 1e17 + 1.0 == 1e17
        sim = _Simulation(adess_cfg())  # one unit-rate miner: unit blocks
        sim.time = time
        sim._regroup(list(sim._groups))
        assert [e[2] for e in sim._heap] == [sim._on_mine] * pushed
        assert len(sim._instant) == 1 - pushed
