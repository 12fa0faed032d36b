"""The simulator against its plain reference twin, `naive_sim`, byte for
byte on seeded random configurations."""

from __future__ import annotations

import random
from collections import Counter

from adess.netsim import ATTACKER, STRATEGIES, run_scenario

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
