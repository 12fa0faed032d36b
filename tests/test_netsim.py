"""Discrete-event simulator tests: scenario matrix, determinism, probes.

The frozen numbers below follow from hand-traced certainty-equivalent
schedules: with full difficulty adjustment an honest unit-hashrate group
produces one block per time unit, and a growth-g attacker block n costs
c * g^(n+1) * (duration 1/g) at difficulty g^n.
"""

from __future__ import annotations

import heapq
import random
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest

from adess import netsim
from adess.chain import BlockTree
from adess.economics import AttackParams
from adess.errors import ConfigError, DomainError
from adess.forkchoice import AdessParams, NodeView
from adess.mining import DifficultyRule, Stochastic
from adess.netsim import (ATTACKER, ScenarioConfig, _Simulation,
                          accelerated_rate, disconnected_node_probe,
                          latency_split_check, run_scenario)

from arrivals import per_arrival
from test_forkchoice_canonical import forky_config


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
    # the tree section replays losslessly
    back = BlockTree.from_snapshot(rep.snapshot)
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
    sim._nextdiff[sim.fork_block] = 5e-324  # x 0.5 rounds to 0.0
    queued = list(sim._heap)
    sim._schedule_attacker_block()
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
    assert not probe.undecidable and not probe.inference_used
    assert probe.inferred_head == probe.reference_head


def test_probe_late_join_is_undecidable_but_infers_reference():
    probe = disconnected_node_probe(adess_cfg(), join_time=10.0)
    assert probe.undecidable and probe.inference_used
    assert probe.undecidable_forks
    assert probe.inferred_head == probe.reference_head


# -- views shared by receivers with identical links ---------------------------

def run_with_private_views(cfg: ScenarioConfig) -> tuple:
    """Run `cfg` one (member, block) arrival at a time while also feeding
    each receiver a private view, checking after every arrival that the head
    the simulator took from the shared view's memo is the private view's
    (att_obs's only while it is read), and that the run's output is the
    per-class runs' own; returns (sim, memo hits, orphans)."""
    sim = _Simulation(cfg)
    private = {name: NodeView(cfg.adess) for name in sim._views}
    hits = orphans = 0

    def checked(node, block, arrive):
        nonlocal hits, orphans
        view = private[node]
        hits += block.id in sim._views[node][1]
        orphans += block.parent not in view.tree.children
        view.observe(block, sim.time)
        read = node != "att_obs" or sim._obs_read
        arrive()
        if read:
            assert sim._canonical[node] == sim._node_canonical(view)

    per_arrival(sim, checked)
    report = sim.run()
    plain = run_scenario(cfg)
    assert report.to_text() == plain.to_text()
    assert report.series_csv() == plain.series_csv()
    return sim, hits, orphans


def one_miner_cfg(**kw) -> ScenarioConfig:
    return adess_cfg(n_honest_nodes=8, delay=0.3, mining=Stochastic(tick=0.01),
                     **kw)


def test_shared_views_match_private_views_through_a_broadcast():
    sim, hits, _ = run_with_private_views(one_miner_cfg(seed=1, horizon=60.0))
    # n1..n7 share a view, and the attack's blocks reach them in one batch
    assert sim.broadcast_time is not None and len(sim.attacker_chain) > 1
    assert sim.nodes["n1"] is sim.nodes["n7"] and hits > 0


def test_shared_views_match_private_views_under_eclipses():
    sim, hits, _ = run_with_private_views(one_miner_cfg(
        seed=2, horizon=40.0, eclipse_set=("n3",)))
    assert sim.broadcast_time is not None and hits > 0
    assert sim.nodes["n3"] is not sim.nodes["n2"]
    sim, hits, _ = run_with_private_views(adess_cfg(
        n_honest_nodes=6, delay=0.3, mining=Stochastic(tick=0.01), seed=3,
        honest_hashrates={"n0": 0.5, "n1": 0.3, "n4": 0.2},
        eclipse_from_honest=("n4", "n5")))
    assert hits > 0 and sim.nodes["n5"] is not sim.nodes["n2"]


def test_shared_views_match_private_views_with_orphans():
    # n0's blocks reach n4..n7 late, after n1's children of them
    slow = {("n0", f"n{i}"): 2.0 for i in range(4, 8)}
    sim, hits, orphans = run_with_private_views(one_miner_cfg(
        seed=4, horizon=40.0, honest_hashrates={"n0": 0.5, "n1": 0.5},
        delays=slow))
    assert sim.nodes["n2"] is sim.nodes["n3"]
    assert sim.nodes["n4"] is sim.nodes["n7"] is not sim.nodes["n3"]
    assert hits > 0 and orphans > 0


@pytest.mark.parametrize("strategy", ["paper_optimal", "accelerated",
                                      "budish"])
@pytest.mark.parametrize("nodes", [8, 1])  # att_obs alone, or with n0
def test_feeding_att_obs_throughout_changes_no_output(monkeypatch, strategy,
                                                      nodes):
    cfg = replace(one_miner_cfg(seed=2, horizon=60.0,
                                attacker_strategy=strategy),
                  n_honest_nodes=nodes, delay=0.3 * (nodes > 1))
    skipping = _Simulation(cfg)
    skipped = skipping.run()
    monkeypatch.setattr(_Simulation, "_obs_read", property(  # always read
        lambda self: True, lambda self, value: None), raising=False)
    feeding = _Simulation(cfg)
    fed = feeding.run()
    assert skipped.attack_succeeded and skipped.broadcast_time is not None
    assert skipped.to_text() == fed.to_text()
    assert skipped.series_csv() == fed.series_csv()
    # att_obs alone stops observing once it is no longer read; sharing n0's
    # view, it loses nothing
    fed_more = len(feeding.att_obs.log) > len(skipping.att_obs.log)
    assert fed_more == (nodes > 1)


def test_distinct_views_per_benchmark_shape():
    def distinct(cfg):
        return len({id(view) for view, _ in _Simulation(cfg)._views.values()})

    deep = one_miner_cfg(horizon=1000.0)
    assert distinct(deep) == 3  # att_obs, n0, n1..n7
    assert distinct(adess_cfg(horizon=100.0)) == 1  # n0 and att_obs
    assert distinct(replace(deep, horizon=40.0, honest_hashrates={
        f"n{i}": 0.125 for i in range(8)})) == 9  # each miner hears itself


def test_a_head_left_by_its_last_miner_keeps_no_member_entry():
    # every head n0 mined on and moved off would keep an empty list
    sim = _Simulation(one_miner_cfg(seed=7, horizon=200.0))
    sim.run()
    assert len(sim.tree.blocks) > 100 and sim._members
    assert all(sim._members.values())


# -- the same-instant draw buffer and per-class rows ---------------------------

def test_no_mine_event_superseded_in_its_instant_reaches_the_heap(
        monkeypatch):
    sim = _Simulation(replace(forky_config(5), horizon=40.0))
    drawn, superseded, pushed = {}, {}, []  # mine seq -> instant
    regroup = sim._regroup

    def tracked(dirty):
        before = {h: g[1] for h, g in sim._groups.items()}
        regroup(dirty)
        after = {h: g[1] for h, g in sim._groups.items()}
        for head, seq in before.items():
            if after.get(head) != seq:
                superseded[seq] = sim.time
        for head, seq in after.items():
            if before.get(head) != seq:
                drawn[seq] = sim.time

    def push(heap, item):
        if item[2] == sim._on_mine:
            pushed.append(item[1])
        heapq.heappush(heap, item)

    monkeypatch.setattr(netsim, "heapq", SimpleNamespace(
        heappush=push, heappop=heapq.heappop))
    sim._regroup = tracked
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
                for _, _, members, _ in runs):
            batched.append(sim.series[start:])

    sim._on_arrive = watched
    report = sim.run()
    assert len(batched) == 1
    plain = [node for _, node, _, _ in batched[0] if node >= "n4"]
    assert plain == [f"n{i}" for i in range(4, 8) for _ in range(3)]
    single = _Simulation(cfg)
    per_arrival(single, lambda node, block, arrive: arrive())
    replayed = single.run()
    assert single.series == sim.series
    assert replayed.to_text() == report.to_text()


def test_a_draw_that_may_fall_due_at_its_instant_is_pushed_at_once():
    for time, pushed in ((0.0, False), (1e17, True)):  # 1e17 + 1.0 == 1e17
        sim = _Simulation(adess_cfg())  # one unit-rate miner: unit blocks
        sim.time = time
        sim._regroup(list(sim._members))
        assert [e[2] for e in sim._heap] == [sim._on_mine] * pushed
        assert len(sim._instant) == 1 - pushed
