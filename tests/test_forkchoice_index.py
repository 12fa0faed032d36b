"""Differential check of NodeView's per-block fork-choice index against tree
walks: every view is replayed block by block, and after every observe the
index entry of every head is compared with a reference computed from
scratch."""

from __future__ import annotations

import gc
import random

from adess.chain import BlockTree, SeenTree
from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import Stochastic
from adess.netsim import ScenarioConfig, _Simulation, run_scenario

from fuzz_trees import build_random_view


def walk_path(view: NodeView, bid: int) -> list:
    """`bid` and its ancestors by parent walk, the one at height h at h."""
    path = []
    while bid is not None:
        path.append(bid)
        bid = view.store.block(bid).parent
    return path[::-1]


def branch_on(view: NodeView, fork: int, path: list):
    """Branch child of `fork` that a walked `path` passes through, or None."""
    h = view.store.block(fork).height + 1
    if h < len(path) and view.store.block(path[h]).parent == fork:
        return path[h]
    return None


def scan_anchor(view: NodeView, bid: int, resets: dict):
    """Deepest reset anchor on the path of `bid`, by a scan of every reset."""
    best = None
    for anchor in resets:
        if view.store.is_ancestor(anchor, bid) and (
                best is None
                or view.store.block(anchor).height
                > view.store.block(best).height):
            best = anchor
    return best


def resets_of(view: NodeView) -> dict:
    """Reset anchor -> (cumdiff, re-based score), over the distinct resets
    that the view's index entries hold."""
    return {r[0]: r[1:] for r, _ in view._index.values() if r is not None}


def deepest_by_walk(view: NodeView) -> dict:
    """Block -> (height, -first-seen index, id) of the first-seen deepest
    block in its subtree, children folded before their parent."""
    seen, deepest = view.tree.first_seen, {}
    for bid, _ in reversed(view.tree.arrivals):  # a child after its parent
        top = (view.store.block(bid).height, -seen[bid], bid)
        for c in view.tree.children[bid]:
            top = max(top, deepest[c])
        deepest[bid] = top
    return deepest


def check_entry(view: NodeView, bid: int, deepest: dict, resets: dict):
    reset, path = view._index[bid]
    assert (None if reset is None else reset[0]) == scan_anchor(view, bid,
                                                                resets)
    expected, walked = [], walk_path(view, bid)
    for fork in view._forks:  # fork-creation order
        c = branch_on(view, fork, walked)
        if c is not None:
            expected.append((fork, c))
    assert [(br.fork, br.child) for br in path] == expected
    # each entry is its branch's one record, holding the fork's height and
    # the branch's length and deepest block, and a penalized record holds
    # its baseline branch's record
    for br in path:
        fs, at = view._forks[br.fork], view.store.block(br.fork).height
        assert br.height == at and br is fs.branches[br.child]
        height, _, block = deepest[br.child]
        assert (br.tip - at, br.deepest) == (height - at, block)
        if br.base is not None:
            assert br.base is fs.baseline


def replay_checked(source: NodeView) -> NodeView:
    """Feed `source`'s observation log to a fresh view, checking the index of
    every head after every observe and of every block at the end."""
    view = NodeView(source.params, source.store)
    for bid, arrival in source.tree.arrivals[1:]:
        view.observe(bid, arrival)
        deepest, resets = deepest_by_walk(view), resets_of(view)
        for head in view.tree.heads:
            check_entry(view, head, deepest, resets)
    for bid in view.tree.children:
        check_entry(view, bid, deepest, resets)
    assert view.penalty_ledger() == source.penalty_ledger()
    assert view.adess_canonical() == source.adess_canonical()
    assert view.tree.heads == source.tree.heads
    assert view.tree.children == source.tree.children
    return view


def test_index_matches_walks_on_fuzz_trees():
    rng = random.Random(2)
    resets = 0
    for i in range(150):  # every third: some siblings out of id order
        tree_rng = random.Random(rng.getrandbits(32))
        view = replay_checked(build_random_view(tree_rng,
                                                shuffled=i % 3 == 2))
        resets += len(resets_of(view))
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
            forks += len(replay_checked(view).fork_states())
    assert forks > 0


def test_store_backed_view_matches_standalone_view():
    # a view over a store other views read, and one over a copy of its own,
    # agree through late arrivals, and neither writes to its store
    rng = random.Random(4)
    orphans = 0
    for _ in range(100):
        source = build_random_view(random.Random(rng.getrandbits(32)))
        arrivals = [bid for bid, _ in source.tree.arrivals[1:]]
        # some blocks arrive late, after their children
        late = [i + rng.choice((0, 0, 0, 2.5)) for i in range(len(arrivals))]
        arrivals = [bid for _, bid in sorted(zip(late, arrivals))]
        snapshot = source.store.snapshot()
        shared = NodeView(source.params, source.store)
        alone = NodeView(source.params, BlockTree.from_snapshot(snapshot))
        for t, bid in enumerate(arrivals, start=1):
            parent = source.store.block(bid).parent
            orphans += parent not in alone.tree.children
            shared.observe(bid, float(t))
            alone.observe(bid, float(t))
            assert shared.adess_canonical() == alone.adess_canonical()
            assert shared.nakamoto_canonical() == alone.nakamoto_canonical()
        assert all(isinstance(v.tree, SeenTree) for v in (shared, alone))
        assert shared.tree.heads == alone.tree.heads
        assert shared.tree.children == alone.tree.children
        assert shared.tree.arrivals == alone.tree.arrivals
        assert shared.penalty_ledger() == alone.penalty_ledger()
        assert source.store.snapshot() == alone.store.snapshot() == snapshot
    assert orphans > 0


def test_a_dropped_run_or_view_leaves_no_reference_cycles():
    # no fork-choice record refers back to its owner, so reference counting
    # frees a finished run or view whole and the cyclic collector finds none
    cfg = ScenarioConfig(
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        mining=Stochastic(tick=0.01),
        n_honest_nodes=8,
        honest_hashrates={f"n{i}": 0.125 for i in range(8)},
        delay=0.3, horizon=40.0, seed=1)
    gc.collect()
    gc.disable()
    try:
        run_scenario(cfg)  # its report is dropped at once
        assert gc.collect() == 0
        source = build_random_view(random.Random(3))
        view = NodeView(source.params, source.store)
        for bid, arrival in source.tree.arrivals[1:]:
            view.observe(bid, arrival)
        # penalized, deactivated and re-based records are dropped with it
        assert any(r.deactivated_at is not None
                   for r in view.penalty_records())
        del source, view
        assert gc.collect() == 0
    finally:
        gc.enable()
