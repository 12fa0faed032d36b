"""The simulator against its plain reference twin, `naive_sim`, byte for
byte on seeded random configurations."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from adess.netsim import ATTACKER, STRATEGIES, _Simulation, run_scenario

from naive_sim import DELAYS, random_config, run_naive

SEEDS = range(300)


def test_simulator_matches_its_naive_twin_on_random_configs():
    seen = Counter()
    for seed in SEEDS:
        cfg = random_config(random.Random(seed))
        fast, naive = run_scenario(cfg), run_naive(cfg)
        assert naive.to_text() == fast.to_text(), seed
        assert naive.series_csv() == fast.series_csv(), seed
        seen.update(broadcast=fast.broadcast_time is not None,
                    succeeded=fast.attack_succeeded,
                    crossing=fast.boundary_crossing_time is not None,
                    split=fast.split_persists)
    # the attack runs its course in most runs, and fails in some
    assert min(seen.values()) > 100 and seen["succeeded"] < len(SEEDS)


def test_random_configs_cover_the_matrix():
    cfgs = [random_config(random.Random(seed)) for seed in SEEDS]
    assert {c.n_honest_nodes for c in cfgs} == set(range(1, 7))
    assert {c.protocol for c in cfgs} == {"adess", "nakamoto"}
    assert {c.attacker_strategy for c in cfgs} == set(STRATEGIES)
    assert {(c.difficulty.mode, c.difficulty.epoch_length) for c in cfgs} \
        == {("full", 1), ("partial", 1), ("epoch", 3)}
    assert {type(c.mining).__name__ for c in cfgs} \
        == {"CertaintyEquivalent", "Stochastic"}
    assert sum(bool(c.eclipse_set) for c in cfgs) > 30
    assert sum(bool(c.eclipse_from_honest) for c in cfgs) > 30
    # one sender reaching two nodes over 0.3 and 0.1 + 0.2
    tied = 0
    for c in cfgs:
        for sender in (ATTACKER, *c.node_names()):
            delays = {c.link_delay(sender, n) for n in c.node_names()}
            tied += {DELAYS[3], DELAYS[4]} <= delays
    assert tied > 10


def wide_config(seed: int):
    """`random_config` widened to 40 nodes, about 30% mining, with 15 link
    overrides and random eclipses: classes interleave in link order, and
    long runs of one class form between them."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(40)]
    rates = {m: rng.choice((0.2, 0.5, 1.0)) if rng.random() < 0.3 else 0.0
             for m in names}
    rates[rng.choice(names)] = 1.0
    return replace(
        random_config(rng), n_honest_nodes=40, honest_hashrates=rates,
        delays={(rng.choice(names + [ATTACKER]), rng.choice(names)):
                rng.choice(DELAYS) for _ in range(15)},
        eclipse_set=tuple(m for m in names if rng.random() < 0.15),
        eclipse_from_honest=tuple(m for m in names if rng.random() < 0.15),
        horizon=10.0)


def test_simulator_matches_its_naive_twin_on_wide_configs():
    longest = 0  # members of a run
    for seed in range(6):
        cfg = wide_config(seed)
        sim = _Simulation(cfg)
        stretches = [runs for batches in sim._runs.values()
                     for _, runs in batches]
        # classes interleave in name order, yet each view is in at most one
        # run of a stretch
        assert all(len({id(run[0]) for run in runs}) == len(runs)
                   for runs in stretches)
        longest = max(longest, *(len(run[1]) for runs in stretches
                                 for run in runs))
        fast, naive = sim.run(), run_naive(cfg)
        assert naive.to_text() == fast.to_text(), seed
        assert naive.series_csv() == fast.series_csv(), seed
        assert len(fast.series) > 100, seed
    assert longest >= 3
