"""Differential check of NodeView's per-block fork-choice index against tree
walks: every view is replayed block by block, and after every observe the
index entry of every head is compared with a reference computed from
scratch."""

from __future__ import annotations

import random

from adess.chain import SeenTree
from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig, _Simulation

from fuzz_trees import build_random_view


def walk_branch(view: NodeView, fork: int, bid: int):
    """Branch child of `fork` that `bid` descends through, by parent walk."""
    tree = view.store
    fork_h = tree.block(fork).height
    cur = bid
    while tree.block(cur).height > fork_h + 1:
        cur = tree.block(cur).parent
    if tree.block(cur).height == fork_h + 1 and tree.block(cur).parent == fork:
        return cur
    return None


def scan_anchor(view: NodeView, bid: int):
    """Deepest reset anchor on the path of `bid`, by a scan of every reset."""
    best = None
    for anchor in view._resets:
        if view.store.is_ancestor(anchor, bid) and (
                best is None
                or view.store.block(anchor).height
                > view.store.block(best).height):
            best = anchor
    return best


def check_entry(view: NodeView, bid: int):
    anchor, path = view._index[bid]
    assert anchor == scan_anchor(view, bid)
    expected = []
    for fs in view._forks.values():  # fork-creation order
        c = walk_branch(view, fs.fork, bid)
        assert view._branch_at(fs, bid) == c
        if c is not None:
            expected.append((fs.fork, c))
    assert [(fs.fork, c) for fs, c in path] == expected
    assert all(fs is view._forks[fs.fork] for fs, _ in path)


def replay_checked(source: NodeView) -> NodeView:
    """Feed `source`'s observation log to a fresh view, checking the index of
    every head after every observe and of every block at the end."""
    view = NodeView(source.params)
    for bid, arrival in source.log.entries[1:]:
        view.observe(source.store.block(bid), arrival)
        for head in view.tree.heads:
            check_entry(view, head)
    for bid in view.tree.children:
        check_entry(view, bid)
    assert view.penalty_ledger() == source.penalty_ledger()
    assert view.adess_canonical() == source.adess_canonical()
    assert view.tree.heads == source.tree.heads
    assert view.tree.children == source.tree.children
    return view


def test_index_matches_walks_on_fuzz_trees():
    rng = random.Random(2)
    resets = 0
    for _ in range(150):
        tree_rng = random.Random(rng.getrandbits(32))
        view = replay_checked(build_random_view(tree_rng))
        resets += len(view._resets)
    assert resets > 0  # the anchor check is exercised, not vacuous


def test_index_matches_walks_in_forky_scenarios():
    forks = 0
    for seed in range(6):
        cfg = ScenarioConfig(
            adess=AdessParams(alpha=2, xi=1.0),
            attack=AttackParams(alpha=2, xi=1.0, v=11.0),
            mining=Stochastic(tick=0.01),
            n_honest_nodes=8,
            honest_hashrates={f"n{i}": 0.125 for i in range(8)},
            delay=0.3, horizon=30.0, seed=seed)
        sim = _Simulation(cfg)
        sim.run()
        for view in list(sim.nodes.values()) + [sim.att_obs]:
            forks += len(replay_checked(view)._forks)
    assert forks > 0


def test_store_backed_view_matches_standalone_view():
    rng = random.Random(4)
    orphans = 0
    for _ in range(100):
        source = build_random_view(random.Random(rng.getrandbits(32)))
        arrivals = [bid for bid, _ in source.log.entries[1:]]
        # some blocks arrive late, after their children
        late = [i + rng.choice((0, 0, 0, 2.5)) for i in range(len(arrivals))]
        arrivals = [bid for _, bid in sorted(zip(late, arrivals))]
        shared = NodeView(source.params, store=source.store)
        alone = NodeView(source.params)
        for t, bid in enumerate(arrivals, start=1):
            block = source.store.block(bid)
            orphans += block.parent not in alone.tree.children
            shared.observe(block, float(t))
            alone.observe(block, float(t))
            assert shared.adess_canonical() == alone.adess_canonical()
            assert shared.nakamoto_canonical() == alone.nakamoto_canonical()
        assert all(isinstance(v.tree, SeenTree) for v in (shared, alone))
        assert shared.tree.heads == alone.tree.heads
        assert shared.tree.children == alone.tree.children
        assert shared.log.entries == alone.log.entries
        assert shared.penalty_ledger() == alone.penalty_ledger()
        assert len(source.store.blocks) == len(alone.store.blocks)
    assert orphans > 0
