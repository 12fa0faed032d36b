"""Fork-choice engine tests: penalty assignment, scoring, boundary crossing,
suppression, tie-breaking and subjective disagreement."""

from __future__ import annotations

import random

import pytest

from adess.chain import Block, BlockTree
from adess.economics import boundary_blocks
from adess.errors import NotPenalized, UnknownBlock
from adess.forkchoice import AdessParams, NodeView, PenaltyRecord


class Script:
    """Block factory over a store of its own, decoupled from any view, so
    views of `store` can observe the same blocks in different orders."""

    def __init__(self):
        self.store = BlockTree()

    def block(self, parent: int, difficulty: float = 1.0) -> Block:
        return self.store.block(self.store.append_block(parent, difficulty))

    def chain(self, parent: int, n: int, difficulty: float = 1.0) -> list:
        out = []
        for _ in range(n):
            out.append(self.block(parent, difficulty))
            parent = out[-1].id
        return out


def feed(view: NodeView, blocks, start: float = 1.0) -> float:
    t = start
    for b in blocks:
        view.observe(b.id, t)
        t += 1.0
    return t


# -- parameter and log validation ---------------------------------------------

def test_params_validation():
    for bad in (dict(alpha=0), dict(xi=0.0), dict(xi=-1.0),
                dict(epsilon=0.0)):
        with pytest.raises(ValueError):
            AdessParams(**bad)
    assert AdessParams().alpha == 6


def test_params_reject_a_non_int_alpha():
    # a bool is an int to Python, but not a confirmation depth
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="alpha must be an int"):
            AdessParams(alpha=bad)


def test_params_reject_non_finite():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(xi=nan), dict(xi=inf), dict(epsilon=nan),
                dict(epsilon=inf), dict(xi=True)):
        with pytest.raises(ValueError):
            AdessParams(**bad)


def test_observation_log_rules():
    s = Script()
    a1, a2 = s.chain(0, 2)
    view = NodeView(AdessParams(), s.store)
    view.observe(a1.id, 1.0)
    view.observe(a1.id, 2.0)  # a seen block is ignored, not logged again
    with pytest.raises(ValueError, match="non-decreasing"):
        view.observe(a2.id, 0.5)  # time went backwards
    view.observe(a2.id, 1.0)
    assert view.tree.arrivals == [(0, 0.0), (a1.id, 1.0), (a2.id, 1.0)]
    assert view.tree.first_seen == {0: 0, a1.id: 1, a2.id: 2}


# -- assignment and retroactive scoring ---------------------------------------

def race_view():
    """Two branches at genesis; B reaches alpha=2 first, A grows longer.

    Feed order: b1 a1 b2 b3 a2 a3 a4, so at b2 branch B wins the race and
    branch A (then one block) is penalized retroactively.
    """
    s = Script()
    b1 = s.block(0)           # id 1
    a1 = s.block(0)           # id 2
    b2, b3 = s.chain(b1.id, 2)  # ids 3, 4
    a2, a3, a4 = s.chain(a1.id, 3)  # ids 5, 6, 7
    view = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(view, [b1, a1, b2, b3, a2, a3, a4])
    return view, a4.id, b3.id


def test_alpha_race_assigns_penalty_to_loser():
    view, a_head, b_head = race_view()
    recs = view.penalty_records()
    assert len(recs) == 1
    rec = recs[0]
    assert rec.fork == 0 and rec.deactivated_at is None
    assert rec.deepest == a_head and rec.base.deepest == b_head
    assert rec.assigned_at == 3.0  # the moment b2 arrived


def test_retroactive_discounted_score():
    view, a_head, _ = race_view()
    # four post-fork blocks at xi = 1: weighted length 4 / (1 + 1)
    assert view.penalized_score(a_head, 0) == pytest.approx(2.0)


def test_canonical_diverges_from_nakamoto():
    view, a_head, b_head = race_view()
    assert view.nakamoto_canonical() == a_head  # cumdiff 5 vs 4
    assert view.adess_canonical() == b_head


def test_never_penalized_witness_is_baseline_head():
    view, _, b_head = race_view()
    w = view.never_penalized_witness()
    assert w == b_head
    assert view.active_penalties(w) == []


def test_penalty_ledger_format():
    view, _, _ = race_view()
    assert view.penalty_ledger() == (
        "penalty chain=7 fork=0 baseline=4 active=1 t_on=3.0 t_off=-\n")


def test_penalized_score_longer_chain():
    # alpha = 1: baseline settles instantly, then both branches grow
    s = Script()
    b1 = s.block(0)
    a1 = s.block(0)
    bs = s.chain(b1.id, 5)   # B length 6
    as_ = s.chain(a1.id, 9)  # A length 10, below the boundary 12
    view = NodeView(AdessParams(alpha=1, xi=1.0), s.store)
    feed(view, [b1, a1] + bs + as_)
    assert view.penalized_score(as_[-1].id, 0) == pytest.approx(5.0)
    with pytest.raises(NotPenalized):
        view.penalized_score(bs[-1].id, 0)  # baseline never scored
    with pytest.raises(NotPenalized):
        view.penalized_score(as_[-1].id, b1.id)  # not a fork block
    # an unknown fork is refused before the block is looked up; an unknown
    # block at a known fork is an unknown block
    with pytest.raises(NotPenalized):
        view.penalized_score(999, b1.id)
    with pytest.raises(UnknownBlock):
        view.penalized_score(999, 0)


# -- canonical boundary --------------------------------------------------------

def boundary_view():
    """Baseline IC of length 5; penalized branch A pushed to the boundary.

    xi = 1 puts the boundary at 2 * 5 = 10 post-fork blocks.
    """
    s = Script()
    ic1 = s.block(0)             # id 1
    a1 = s.block(0)              # id 2
    ic_rest = s.chain(ic1.id, 4)  # ids 3..6, IC length 5
    a_rest = s.chain(a1.id, 9)    # ids 7..15, A length 10
    view = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    t = feed(view, [ic1, a1, ic_rest[0]] + ic_rest[1:] + a_rest[:-1])
    return view, s, ic_rest[-1].id, a_rest, t


def test_below_boundary_stays_penalized():
    view, _, ic_head, a_rest, _ = boundary_view()
    rec = view.penalty_records()[0]
    assert rec.deactivated_at is None
    assert view.adess_canonical() == ic_head


def test_crossing_deactivates_and_rebases():
    view, s, ic_head, a_rest, t = boundary_view()
    a10 = a_rest[-1]
    view.observe(a10.id, t)
    rec = view.penalty_records()[0]
    assert rec.deactivated_at == t
    # re-based score: best baseline score plus epsilon, not raw cumdiff 11
    assert view.adjusted_score(a10.id) == pytest.approx(
        6.0 + 1e-6, abs=1e-12)
    assert view.adess_canonical() == a10.id
    assert view.nakamoto_canonical() == a10.id


def test_held_record_reads_current_heads():
    view, s, ic_head, a_rest, t = boundary_view()
    rec = view.penalty_records()[0]
    assert rec.deepest == a_rest[-2].id
    assert rec.base.deepest == ic_head
    ic6 = s.block(ic_head)
    view.observe(ic6.id, t)
    view.observe(a_rest[-1].id, t + 1.0)
    # no second penalty_records() call: the record follows the branches
    assert rec.base.deepest == ic6.id
    assert rec.deepest == a_rest[-1].id
    # 10 post-fork blocks no longer reach 2 * 6
    assert rec.deactivated_at is None


def test_record_readers_assign_nothing(monkeypatch):
    view, _, _, a_rest, t = boundary_view()
    view.observe(a_rest[-1].id, t)
    written = []

    def record_write(rec, name, value):
        written.append(name)
        object.__setattr__(rec, name, value)

    monkeypatch.setattr(PenaltyRecord, "__setattr__", record_write)
    recs = view.penalty_records()
    ledger = view.penalty_ledger()
    assert recs and ledger.startswith("penalty chain=")
    assert written == []


def test_post_crossing_comparison_uses_rebased_score():
    view, s, ic_head, a_rest, t = boundary_view()
    view.observe(a_rest[-1].id, t)
    ic6 = s.block(ic_head)
    view.observe(ic6.id, t + 1.0)
    # one honest block outruns the epsilon lead under the penalty rule,
    # while raw heaviest-chain still prefers the long attacker branch
    assert view.adess_canonical() == ic6.id
    assert view.nakamoto_canonical() == a_rest[-1].id


@pytest.mark.parametrize("xi", [0.5, 1.0, 1.5, 1 / 3, 2 / 3, 5 / 3, 1.2,
                                0.5 + 1e-8] + [
    random.Random(seed).uniform(0.01, 2.0) for seed in range(5)])
def test_a_record_deactivates_at_the_attackers_boundary_block_count(xi):
    # the view's boundary test and the attacker's K agree to the block,
    # whether N(1+xi) is exact (4 x 2.5), a float step past an integer
    # (9 x (1 + 5/3)) or 2e-8 past one (2 x (1.5 + 1e-8))
    for len_base in range(1, 41):
        s = Script()
        view = NodeView(AdessParams(alpha=1, xi=xi), s.store)
        t = feed(view, s.chain(0, len_base))  # the baseline branch
        K, parent = boundary_blocks(len_base, xi), 0
        for n in range(1, K + 1):  # a late sibling, one block at a time
            block = s.block(parent)
            view.observe(block.id, t + n)
            parent = block.id
            rec, = view.penalty_records()
            assert (rec.deactivated_at is None) == (n < K), (len_base, n, K)
        assert rec.deactivated_at == t + K


# -- multi-branch forks and the generalized rules -----------------------------

def test_three_branches_share_one_baseline():
    s = Script()
    a1 = s.block(0)
    b1 = s.block(0)
    c1 = s.block(0)
    view = NodeView(AdessParams(alpha=1, xi=1.0), s.store)
    feed(view, [a1, b1, c1])
    recs = view.penalty_records()
    assert len(recs) == 2
    assert {r.deepest for r in recs} == {b1.id, c1.id}
    assert all(r.base.deepest == a1.id for r in recs)
    assert all(r.deactivated_at is None for r in recs)
    assert view.adess_canonical() == a1.id


def test_late_sibling_penalized_immediately():
    s = Script()
    a1 = s.block(0)
    b1 = s.block(0)
    view = NodeView(AdessParams(alpha=1, xi=1.0), s.store)
    t = feed(view, [a1, b1])
    assert len(view.penalty_records()) == 1
    c1 = s.block(0)
    view.observe(c1.id, t)
    recs = [r for r in view.penalty_records() if r.deepest == c1.id]
    assert len(recs) == 1 and recs[0].deactivated_at is None
    assert recs[0].assigned_at == t


def test_penalized_winner_suppresses_inner_fork():
    # branch X is penalized at genesis; a fork inside X is then won by a
    # chain that is itself under that active penalty, so no penalty fires
    s = Script()
    b1, b2, b3 = s.chain(0, 3)
    x1 = s.block(0)
    x2 = s.block(x1.id)
    y1 = s.block(x1.id)
    view = NodeView(AdessParams(alpha=1, xi=1.0), s.store)
    feed(view, [b1, b2, b3, x1, x2, y1])
    recs = view.penalty_records()
    assert len(recs) == 1 and recs[0].fork == 0  # nothing at fork x1
    with pytest.raises(NotPenalized):
        view.penalized_score(y1.id, x1.id)
    # both X heads still carry the single outer penalty
    assert len(view.active_penalties(x2.id)) == 1
    assert len(view.active_penalties(y1.id)) == 1
    assert view.adess_canonical() == b3.id


# -- tie-breaking and Nakamoto equivalence ------------------------------------

def test_tie_broken_by_first_seen():
    s = Script()
    a1 = s.block(0)
    b1 = s.block(0)
    v1 = NodeView(AdessParams(alpha=6, xi=1.0), s.store)
    feed(v1, [a1, b1])
    v2 = NodeView(AdessParams(alpha=6, xi=1.0), s.store)
    feed(v2, [b1, a1])
    assert v1.nakamoto_canonical() == v1.adess_canonical() == a1.id
    assert v2.nakamoto_canonical() == v2.adess_canonical() == b1.id


def test_equivalent_to_nakamoto_when_no_fork_reaches_alpha():
    s = Script()
    main = s.chain(0, 8)
    side = s.chain(main[2].id, 3)  # 3 < alpha = 6: never resolved
    view = NodeView(AdessParams(alpha=6, xi=1.0), s.store)
    feed(view, main[:4] + side + main[4:])
    assert view.penalty_records() == []
    assert view.adess_canonical() == view.nakamoto_canonical() \
        == main[-1].id


# -- orphans, sync and subjectivity -------------------------------------------

def test_orphans_buffer_until_parent_arrives():
    s = Script()
    a1, a2, a3 = s.chain(0, 3)
    view = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    view.observe(a2.id, 1.0)
    view.observe(a3.id, 2.0)
    assert not {a2.id, a3.id} & view.tree.children.keys()
    view.observe(a1.id, 3.0)
    assert view.tree.heads == {a3.id}
    # buffered blocks are logged after the parent, at the flush time
    order = [bid for bid, _ in view.tree.arrivals]
    assert order == [0, a1.id, a2.id, a3.id]
    assert [t for _, t in view.tree.arrivals][1:] == [3.0, 3.0, 3.0]


def test_a_chain_of_orphans_longer_than_the_recursion_limit_connects():
    # the flush recursed once per buffered generation, so 1,500 orphans
    # raised RecursionError in their root's observe, leaving the rest lost
    s = Script()
    chain = s.chain(0, 1_500)
    view = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    for block in reversed(chain[1:]):
        view.observe(block.id, 1.0)
    view.observe(chain[0].id, 2.0)
    assert [bid for bid, _ in view.tree.arrivals] == [0] + [
        b.id for b in chain]
    assert view.tree.heads == {chain[-1].id} and not view._pending
    assert view.adess_canonical() == chain[-1].id


def store_for(s: Script, shared: bool) -> BlockTree:
    """`s`'s store, which another view reads too, or a copy of its own."""
    return s.store if shared else BlockTree.from_snapshot(s.store.snapshot())


@pytest.mark.parametrize("shared", [False, True])
def test_an_orphan_delivered_twice_connects_once(shared):
    # blocks 1, 3, 3, 2: both copies of 3 wait on 2, and the first connects
    # (the second raised "block 3 already logged")
    s = Script()
    a1, a2, a3 = s.chain(0, 3)
    source = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(source, [a1, a2, a3])
    view = NodeView(source.params, store_for(s, shared))
    for t, block in enumerate([a1, a3, a3, a2], start=1):
        assert view.observe(block.id, float(t)) is view
    assert view.observe(a3.id, 5.0) is view  # a connected block is ignored
    assert view.tree.arrivals == [(0, 0.0), (a1.id, 1.0), (a2.id, 4.0),
                                (a3.id, 4.0)]
    assert view.tree.children[a2.id] == [a3.id]
    assert view.tree.heads == {a3.id}
    assert view.adess_canonical() == a3.id


@pytest.mark.parametrize("shared", [False, True])
def test_a_rejected_block_leaves_the_view_unchanged(shared):
    # an id the store lacks, and an arrival before the view's clock or NaN,
    # are refused at their own observe, before the view's index or tree
    # change, an orphan's too: a NaN orphan once waited for its parent, then
    # raised in the parent's flush and lost its buffered sibling.  The
    # store refuses a wrong height or a clash (test_chain), and a view never
    # writes to it
    s = Script()
    a1, a2 = s.chain(0, 2)
    b2 = s.block(a1.id)  # a sibling of a2
    source = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(source, [a1])
    store = store_for(s, shared)
    snapshot = store.snapshot()
    view = NodeView(source.params, store)
    nan = float("nan")

    def refused(bid, arrival, error, match, pending):
        with pytest.raises(error, match=match):
            view.observe(bid, arrival)
        assert view._index.keys() == {0}
        assert view.tree.children == {0: []}
        assert view.tree.heads == {0}
        assert view.tree.arrivals == [(0, 0.0)]
        assert view._pending == pending

    refused(99, 1.0, UnknownBlock, "unknown block 99", {})
    refused(a2.id, nan, ValueError, "non-decreasing", {})  # an orphan
    refused(a1.id, nan, ValueError, "non-decreasing", {})
    refused(a1.id, -1.0, ValueError, "non-decreasing", {})  # before genesis
    view.observe(b2.id, 1.0)  # an orphan: buffered, and the clock is 1.0
    refused(a1.id, 0.5, ValueError, "non-decreasing", {a1.id: [b2.id]})
    view.observe(a1.id, 2.0)  # b2 connects with it, at its arrival
    assert view.tree.arrivals == [(0, 0.0), (a1.id, 2.0), (b2.id, 2.0)]
    view.observe(a2.id, 3.0)
    assert view.tree.children[a1.id] == [b2.id, a2.id]
    assert view.tree.heads == {b2.id, a2.id}
    assert view.adess_canonical() == b2.id  # first seen of an equal pair
    assert store.snapshot() == snapshot and 99 not in store.blocks


@pytest.mark.parametrize("shared", [False, True])
def test_an_unseen_block_has_no_adjusted_score(shared):
    # a store, whether another view reads it or not, may hold a block the
    # view has not seen; either way the view knows no score for it
    s = Script()
    a1, = s.chain(0, 1)
    source = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(source, [a1])
    view = NodeView(source.params, s.store if shared else BlockTree())
    assert (a1.id in view.store.blocks) == shared
    for query in (view.adjusted_score, view.active_penalties):
        with pytest.raises(UnknownBlock, match=f"unknown block {a1.id}"):
            query(a1.id)
    if not shared:
        view.store.insert(a1)  # the store's writer, never the view
    view.observe(a1.id, 1.0)
    assert view.adjusted_score(a1.id) == source.adjusted_score(a1.id) == 2.0


def test_subjective_views_may_disagree():
    s = Script()
    a1, a2 = s.chain(0, 2)
    b1, b2 = s.chain(0, 2)
    v1 = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(v1, [a1, a2, b1, b2])
    v2 = NodeView(AdessParams(alpha=2, xi=1.0), s.store)
    feed(v2, [b1, b2, a1, a2])
    assert v1.adess_canonical() == a2.id
    assert v2.adess_canonical() == b2.id
    r1, r2 = v1.penalty_records()[0], v2.penalty_records()[0]
    assert r1.base.deepest == a2.id and r2.base.deepest == b2.id


def test_identical_order_gives_identical_state():
    s = Script()
    blocks = [s.block(0)]
    blocks += s.chain(blocks[0].id, 3)
    blocks.insert(2, s.block(0))
    blocks += s.chain(blocks[2].id, 2)
    views = [NodeView(AdessParams(alpha=2, xi=0.7), s.store) for _ in range(2)]
    for v in views:
        feed(v, blocks)
    assert views[0].penalty_ledger() == views[1].penalty_ledger()
    assert views[0].adess_canonical() == views[1].adess_canonical()
    assert views[0].store.snapshot() == views[1].store.snapshot()
