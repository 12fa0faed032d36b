"""Naive penalty oracle: every penalty fact of a NodeView re-derived from
its observation log alone, checked against the view after every observe.

`NaiveReplay` steps through the log keeping only the facts that depend on
history: the blocks seen so far, when each fork fired and on which baseline,
each record's assignment and deactivation time, and the re-based scores.
Everything else (forks, branch lengths and deepest blocks, alpha arrivals,
active penalties, adjusted scores, the ADESS head) is recomputed by walking
the observed tree each time it is needed.  It uses no `adess.forkchoice`
helper: the rules are restated here from the protocol description.
"""

from __future__ import annotations

import random
from collections import Counter

from adess.forkchoice import NodeView
from adess.netsim import _Simulation

from test_forkchoice_canonical import forky_config
from fuzz_trees import build_random_view
from naive_sim import random_config

BOUNDARY_EPS = 1e-9


class NaiveReplay:
    def __init__(self, params, genesis):
        self.alpha, self.xi = params.alpha, params.xi
        self.epsilon = params.epsilon
        g = genesis.id
        self.parent = {g: None}
        self.paths = {g: ()}          # block -> itself and its ancestors
        self.height = {g: 0}
        self.cum = {g: genesis.difficulty}
        self.seen = {g: 0}            # block -> observation index
        self.synced = {g: False}
        self.children = {g: []}
        self.fired = {}               # fork -> (baseline branch, suppressed)
        self.records = {}             # branch -> [baseline, on, off]
        self.resets = {}              # block -> (cumdiff, re-based score)
        self.level = {0: [g]}         # height -> blocks seen at it


    # -- the observed tree, walked -----------------------------------------

    def path(self, b):
        """b and its ancestors, genesis excluded, deepest first: one block
        per height, so the ancestor at height k is at index -k."""
        return self.paths[b]

    def on_branch(self, c, height):
        """Blocks seen at `height` (at least c's) that descend through c."""
        k = self.height[c]
        return [b for b in self.level.get(height, ()) if self.paths[b][-k] == c]

    def forks(self):
        return sorted([f for f, cs in self.children.items() if len(cs) > 1])

    def undecidable(self, f):
        # a fork opens with its second child; a synced opener (one a node that
        # joined late got by bulk sync) carries no order: the probe's model
        return self.synced[self.children[f][1]]

    def branch_len(self, f, c):
        """(post-fork length, deepest block) of the branch through c.  Of the
        deepest blocks, the first seen wins."""
        top = len(self.level) - 1  # every height up to the tallest is seen
        deepest = self.on_branch(c, top)
        while not deepest:
            top -= 1
            deepest = self.on_branch(c, top)
        return top - self.height[f], min(deepest, key=self.seen.__getitem__)

    def alpha_block(self, f, c):
        """First-seen block at post-fork depth alpha on the branch via c."""
        at = self.on_branch(c, self.height[f] + self.alpha)
        return min(at, key=self.seen.__getitem__) if at else None

    def path_records(self, b):
        return [self.records[x] for x in self.path(b) if x in self.records]

    def penalized(self, b):
        return any(r[2] is None for r in self.path_records(b))

    def score(self, b):
        for x in self.path(b):
            if x in self.resets:
                anchor_cum, value = self.resets[x]
                return value + (self.cum[b] - anchor_cum)
        return self.cum[b]

    def heads(self):
        return [b for b, cs in self.children.items() if not cs]

    def head(self, heads):
        return min((h for h in heads if not self.penalized(h)),
                   key=lambda h: (-self.score(h), self.seen[h], h))

    # -- the protocol, replayed --------------------------------------------

    def step(self, block, arrival, synced=False):
        b, p = block.id, block.parent
        self.parent[b], self.height[b] = p, block.height
        self.paths[b] = (b,) + self.paths[p]
        self.cum[b] = self.cum[p] + block.difficulty
        self.seen[b], self.synced[b] = len(self.seen), synced
        self.children[b] = []
        self.level.setdefault(block.height, []).append(b)
        self.children[p].append(b)
        if len(self.children[p]) > 1:
            if any(c in self.records for c in self.children[p]):
                self.assign(p, b, arrival)  # late sibling, resolved fork
            else:
                self.fire(p, arrival)
        # every fork on the path, oldest first, whose branch just grew
        on_path = sorted(((self.parent[x], x) for x in self.path(b)
                          if len(self.children[self.parent[x]]) > 1),
                         key=lambda e: self.seen[self.children[e[0]][1]])
        # other blocks at least as high; b grew a branch none of them is on
        rivals = [self.paths[x] for x, h in self.height.items()
                  if h >= block.height and x != b]
        for f, c in on_path:
            if any(path[-self.height[c]] == c for path in rivals):
                continue
            depth = block.height - self.height[f]
            if depth == self.alpha:
                self.fire(f, arrival)
            rec = self.records.get(c)
            if rec is not None and rec[2] is None:
                self.boundary(f, c, arrival)

    def fire(self, f, arrival):
        """Decide fork f once some branch reaches alpha: the first to get
        there is the baseline, every other branch is penalized, unless the
        baseline's alpha block is itself under an active penalty."""
        if f in self.fired or self.undecidable(f):
            return
        reached = [(self.seen[a], c) for c in self.children[f]
                   for a in [self.alpha_block(f, c)] if a is not None]
        if not reached:
            return
        base = min(reached)[1]
        suppressed = self.penalized(self.alpha_block(f, base))
        self.fired[f] = (base, suppressed)
        if not suppressed:
            for c in self.children[f]:
                if c != base:
                    self.assign(f, c, arrival)

    def assign(self, f, c, arrival):
        self.records[c] = [self.fired[f][0], arrival, None]
        self.boundary(f, c, arrival)

    def boundary(self, f, c, arrival):
        """Deactivate once the penalized branch is (1 + xi) times as long as
        the baseline; a chain whose last penalty clears is re-based to the
        best baseline score among penalties cleared at this instant."""
        rec = self.records[c]
        if rec[2] is not None:
            return
        len_pen, head_pen = self.branch_len(f, c)
        len_base, _ = self.branch_len(f, rec[0])
        if len_pen < (1.0 + self.xi) * len_base - BOUNDARY_EPS:
            return
        rec[2] = arrival
        if self.penalized(head_pen):
            return
        best = max(self.baseline_score(r[0])
                   for r in self.path_records(head_pen) if r[2] == arrival)
        self.resets[head_pen] = (self.cum[head_pen], best + self.epsilon)

    def baseline_score(self, base):
        scores = [self.score(h) for h in self.heads() if base in self.path(h)]
        return max(scores) if scores else self.score(base)


def check_fork(view: NodeView, oracle: NaiveReplay, f, branches=None):
    """Compare fork f's branch records, on `branches` only if given."""
    fs, at = view._forks[f], view.store.block(f).height
    children = oracle.children[f]
    assert fs.branches.keys() == set(children)
    for c in children if branches is None else branches:
        br = fs.branches[c]
        assert (br.fork, br.height, br.child) == (f, at, c)
        assert (br.tip - at, br.deepest) == oracle.branch_len(f, c)
        if br.base is not None:  # it holds its baseline branch's record
            assert br.base is fs.baseline
    assert (fs.baseline and fs.baseline.child) == oracle.fired.get(
        f, (None,))[0]


def check_step(view: NodeView, oracle: NaiveReplay, bid):
    forks = oracle.forks()
    assert sorted(view._forks) == forks
    for x in oracle.path(bid):  # the only entries this observe can touch
        if oracle.parent[x] in view._forks:
            check_fork(view, oracle, oracle.parent[x], [x])
    fork = oracle.parent[bid]
    if oracle.children[fork][1:2] == [bid]:  # bid opened it: the view has
        check_fork(view, oracle, fork)  # just scanned its earlier branch
    recs = view.penalty_records()
    assert all(r.fork == oracle.parent[r.child] for r in recs)
    assert oracle.records == {r.child: [
        r.base.child, r.assigned_at, r.deactivated_at] for r in recs}
    assert {r[0]: r[1:] for r, _ in view._index.values()
            if r is not None} == oracle.resets
    heads = oracle.heads()
    for h in heads:
        assert view.adjusted_score(h) == oracle.score(h)
    assert view.adess_canonical() == oracle.head(heads)


def replay_against_oracle(source: NodeView) -> NaiveReplay:
    """Replay `source`'s log into a fresh view and the oracle, comparing
    both after every observe."""
    view = NodeView(source.params, source.store)
    genesis = source.store.block(source.store.genesis_id)
    oracle = NaiveReplay(source.params, genesis)
    records = None
    for bid, arrival in source.tree.arrivals[1:]:
        block = source.store.block(bid)
        view.observe(bid, arrival)
        oracle.step(block, arrival)
        check_step(view, oracle, bid)
        # no block lies under two active penalties (forkchoice's module doc)
        assert max(view._active.values()) <= 1
        # a block's active-penalty count changes when it arrives, and for
        # every block when a record is assigned or deactivated
        before, records = records, repr(oracle.records)
        for b in oracle.seen if records != before else (bid,):
            assert (view._active[b] > 0) == bool(
                view.active_penalties(b))
    for f in oracle.forks():
        check_fork(view, oracle, f)
    return oracle


COVERED = ("records", "deactivated", "resets", "suppressed")


def coverage(oracle: NaiveReplay) -> dict:
    return {
        "records": len(oracle.records),
        "deactivated": sum(r[2] is not None for r in oracle.records.values()),
        "resets": len(oracle.resets),
        "suppressed": sum(s for _, s in oracle.fired.values()),
    }


def test_oracle_matches_views_on_fuzz_trees():
    rng = random.Random(2026)
    seen: Counter = Counter()
    for i in range(500):  # odd trees: some siblings arrive out of id order
        source = build_random_view(random.Random(rng.getrandbits(32)),
                                   shuffled=i % 2 == 1)
        seen.update(coverage(replay_against_oracle(source)))
    assert all(seen[key] for key in COVERED), seen


def test_oracle_matches_every_view_of_forky_scenarios():
    # a view of each random config holds a branch whose deepest blocks
    # arrived out of id order: the first seen is its deepest block
    cfgs = [forky_config(100 + seed) for seed in range(10)]
    cfgs += [random_config(random.Random(seed)) for seed in (282, 456, 537)]
    seen: Counter = Counter()
    for cfg in cfgs:
        sim = _Simulation(cfg)
        sim.run()
        for view in list(sim.nodes.values()) + [sim.att_obs]:
            seen.update(coverage(replay_against_oracle(view)))
    assert all(seen[key] for key in COVERED[:3]), seen
