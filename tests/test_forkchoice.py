"""Fork-choice engine tests: penalty assignment, scoring, boundary crossing,
suppression, tie-breaking and subjective disagreement."""

from __future__ import annotations

import pytest

from adess.chain import Block
from adess.errors import NotPenalized
from adess.forkchoice import (AdessParams, NodeView, ObservationLog,
                               PenaltyRecord)


class Script:
    """Block factory with locally tracked heights, decoupled from any view,
    so the same blocks can be fed to several views in different orders."""

    def __init__(self, genesis: int = 0):
        self.height = {genesis: 0}
        self.next_id = genesis + 1

    def block(self, parent: int, difficulty: float = 1.0) -> Block:
        bid = self.next_id
        self.next_id += 1
        self.height[bid] = self.height[parent] + 1
        return Block(bid, parent, self.height[bid], difficulty, "", 0.0)

    def chain(self, parent: int, n: int, difficulty: float = 1.0) -> list:
        out = []
        for _ in range(n):
            out.append(self.block(parent, difficulty))
            parent = out[-1].id
        return out


def feed(view: NodeView, blocks, start: float = 1.0) -> float:
    t = start
    for b in blocks:
        view.observe(b, t)
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
    log = ObservationLog()
    log.append(1, 1.0)
    with pytest.raises(ValueError):
        log.append(1, 2.0)  # duplicate
    with pytest.raises(ValueError):
        log.append(2, 0.5)  # time went backwards
    log.append(2, 1.0)
    assert len(log) == 3 - 1 and 1 in log and 9 not in log


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
    view = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(view, [b1, a1, b2, b3, a2, a3, a4])
    return view, a4.id, b3.id


def test_alpha_race_assigns_penalty_to_loser():
    view, a_head, b_head = race_view()
    recs = view.penalty_records()
    assert len(recs) == 1
    rec = recs[0]
    assert rec.fork == 0 and rec.active
    assert rec.penalized == a_head and rec.baseline == b_head
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
    view = NodeView(AdessParams(alpha=1, xi=1.0))
    feed(view, [b1, a1] + bs + as_)
    assert view.penalized_score(as_[-1].id, 0) == pytest.approx(5.0)
    with pytest.raises(NotPenalized):
        view.penalized_score(bs[-1].id, 0)  # baseline never scored
    with pytest.raises(NotPenalized):
        view.penalized_score(as_[-1].id, b1.id)  # not a fork block


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
    view = NodeView(AdessParams(alpha=2, xi=1.0))
    t = feed(view, [ic1, a1, ic_rest[0]] + ic_rest[1:] + a_rest[:-1])
    return view, s, ic_rest[-1].id, a_rest, t


def test_below_boundary_stays_penalized():
    view, _, ic_head, a_rest, _ = boundary_view()
    rec = view.penalty_records()[0]
    assert rec.active and rec.deactivated_at is None
    assert view.adess_canonical() == ic_head


def test_crossing_deactivates_and_rebases():
    view, s, ic_head, a_rest, t = boundary_view()
    a10 = a_rest[-1]
    view.observe(a10, t)
    rec = view.penalty_records()[0]
    assert not rec.active and rec.deactivated_at == t
    # re-based score: best baseline score plus epsilon, not raw cumdiff 11
    assert view.adjusted_score(a10.id) == pytest.approx(
        6.0 + 1e-6, abs=1e-12)
    assert view.adess_canonical() == a10.id
    assert view.nakamoto_canonical() == a10.id


def test_held_record_reads_current_heads():
    view, s, ic_head, a_rest, t = boundary_view()
    rec = view.penalty_records()[0]
    assert rec.penalized == a_rest[-2].id
    assert rec.baseline == ic_head
    ic6 = s.block(ic_head)
    view.observe(ic6, t)
    view.observe(a_rest[-1], t + 1.0)
    # no second penalty_records() call: the record follows the branches
    assert rec.baseline == ic6.id
    assert rec.penalized == a_rest[-1].id
    assert rec.active  # 10 post-fork blocks no longer reach 2 * 6


def test_record_readers_assign_nothing(monkeypatch):
    view, _, _, a_rest, t = boundary_view()
    view.observe(a_rest[-1], t)
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
    view.observe(a_rest[-1], t)
    ic6 = s.block(ic_head)
    view.observe(ic6, t + 1.0)
    # one honest block outruns the epsilon lead under the penalty rule,
    # while raw heaviest-chain still prefers the long attacker branch
    assert view.adess_canonical() == ic6.id
    assert view.nakamoto_canonical() == a_rest[-1].id


# -- multi-branch forks and the generalized rules -----------------------------

def test_three_branches_share_one_baseline():
    s = Script()
    a1 = s.block(0)
    b1 = s.block(0)
    c1 = s.block(0)
    view = NodeView(AdessParams(alpha=1, xi=1.0))
    feed(view, [a1, b1, c1])
    recs = view.penalty_records()
    assert len(recs) == 2
    assert {r.penalized for r in recs} == {b1.id, c1.id}
    assert all(r.baseline == a1.id for r in recs)
    assert all(r.active for r in recs)
    assert view.adess_canonical() == a1.id


def test_late_sibling_penalized_immediately():
    s = Script()
    a1 = s.block(0)
    b1 = s.block(0)
    view = NodeView(AdessParams(alpha=1, xi=1.0))
    t = feed(view, [a1, b1])
    assert len(view.penalty_records()) == 1
    c1 = s.block(0)
    view.observe(c1, t)
    recs = [r for r in view.penalty_records() if r.penalized == c1.id]
    assert len(recs) == 1 and recs[0].active and recs[0].assigned_at == t


def test_penalized_winner_suppresses_inner_fork():
    # branch X is penalized at genesis; a fork inside X is then won by a
    # chain that is itself under that active penalty, so no penalty fires
    s = Script()
    b1, b2, b3 = s.chain(0, 3)
    x1 = s.block(0)
    x2 = s.block(x1.id)
    y1 = s.block(x1.id)
    view = NodeView(AdessParams(alpha=1, xi=1.0))
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
    v1 = NodeView(AdessParams(alpha=6, xi=1.0))
    feed(v1, [a1, b1])
    v2 = NodeView(AdessParams(alpha=6, xi=1.0))
    feed(v2, [b1, a1])
    assert v1.nakamoto_canonical() == v1.adess_canonical() == a1.id
    assert v2.nakamoto_canonical() == v2.adess_canonical() == b1.id


def test_equivalent_to_nakamoto_when_no_fork_reaches_alpha():
    s = Script()
    main = s.chain(0, 8)
    side = s.chain(main[2].id, 3)  # 3 < alpha = 6: never resolved
    view = NodeView(AdessParams(alpha=6, xi=1.0))
    feed(view, main[:4] + side + main[4:])
    assert view.penalty_records() == []
    assert view.adess_canonical() == view.nakamoto_canonical() \
        == main[-1].id


# -- orphans, sync and subjectivity -------------------------------------------

def test_orphans_buffer_until_parent_arrives():
    s = Script()
    a1, a2, a3 = s.chain(0, 3)
    view = NodeView(AdessParams(alpha=2, xi=1.0))
    view.observe(a2, 1.0)
    view.observe(a3, 2.0)
    assert not {a2.id, a3.id} & view.tree.children.keys()
    view.observe(a1, 3.0)
    assert view.tree.heads == {a3.id}
    # buffered blocks are logged after the parent, at the flush time
    order = [bid for bid, _ in view.log.entries]
    assert order == [0, a1.id, a2.id, a3.id]
    assert [t for _, t in view.log.entries][1:] == [3.0, 3.0, 3.0]


@pytest.mark.parametrize("shared", [False, True])
def test_an_orphan_delivered_twice_connects_once(shared):
    # blocks 1, 3, 3, 2: both copies of 3 wait on 2, and the first connects
    # (the second raised "block 3 already logged")
    a1, a2, a3 = Script().chain(0, 3)
    source = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(source, [a1, a2, a3])
    view = NodeView(source.params, store=source.store if shared else None)
    for t, block in enumerate([a1, a3, a3, a2], start=1):
        assert view.observe(block, float(t)) is view
    assert view.observe(a3, 5.0) is view  # a connected block is ignored
    assert view.log.entries == [(0, 0.0), (a1.id, 1.0), (a2.id, 4.0),
                                (a3.id, 4.0)]
    assert view.tree.children[a2.id] == [a3.id]
    assert view.tree.heads == {a3.id}
    assert view.adess_canonical() == a3.id


@pytest.mark.parametrize("shared", [False, True])
def test_a_rejected_block_leaves_the_view_unchanged(shared):
    # the store refuses a block of the wrong height, and the log an arrival
    # out of order, before the view's tree or index change; a valid block
    # the store lacks is written to it and connected
    a1, a2 = Script().chain(0, 2)
    source = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(source, [a1])
    view = NodeView(source.params, store=source.store if shared else None)
    view.observe(a1, 1.0)
    with pytest.raises(ValueError, match="height 5"):
        view.observe(Block(99, a1.id, 5, 1.0, "", 0.0), 2.0)
    assert 99 not in view.store and 99 not in view._index
    with pytest.raises(ValueError, match="non-decreasing"):
        view.observe(a2, 0.5)  # an arrival before the last one logged
    assert a2.id not in view._index
    assert view.tree.children == {0: [a1.id], a1.id: []}
    assert view.tree.heads == {a1.id}
    assert view.log.entries == [(0, 0.0), (a1.id, 1.0)]
    view.observe(a2, 3.0)
    assert a2.id in view.store and (a2.id in source.store) == shared
    assert view.tree.heads == {a2.id} and view.adess_canonical() == a2.id


def test_sync_observed_fork_is_undecidable():
    s = Script()
    a1, a2 = s.chain(0, 2)
    b1, b2 = s.chain(0, 2)
    view = NodeView(AdessParams(alpha=1, xi=1.0))
    feed(view, [a1, a2])
    view.observe(b1, 3.0, synced=True)
    view.observe(b2, 4.0, synced=True)
    assert view.undecidable_forks == [0]
    assert view.penalty_records() == []
    assert view.adess_canonical() == view.nakamoto_canonical() \
        == a2.id


def test_buffered_orphans_keep_their_own_synced_flag():
    # two synced children of b1 wait for b1, which then arrives live: the
    # fork they open at b1 carries no temporal order
    s = Script()
    b1 = s.block(0)
    c1, c2 = s.block(b1.id), s.block(b1.id)
    view = NodeView(AdessParams(alpha=1, xi=1.0))
    view.observe(c1, 1.0, synced=True)
    view.observe(c2, 1.0, synced=True)
    view.observe(b1, 2.0)
    assert view.undecidable_forks == [b1.id]
    assert view.penalty_records() == []


def test_synced_flag_matters_only_where_a_fork_opens():
    s = Script()
    a1 = s.block(0)
    b1, b2 = s.chain(0, 2)
    c1 = s.block(0)
    x1, x2, x3 = s.chain(a1.id, 3)
    y1 = s.block(a1.id)
    view = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(view, [a1, b1])  # fork 0 opened live
    # a synced block on a live fork counts toward alpha: b reaches it first
    view.observe(b2, 3.0, synced=True)
    (rec,) = view.penalty_records()
    assert (rec.penalized, rec.baseline) == (a1.id, b2.id)
    # and a synced late sibling at the resolved fork is penalized at once
    view.observe(c1, 4.0, synced=True)
    assert [r.penalized_branch for r in view.penalty_records()] \
        == [a1.id, c1.id]
    # a fork opened by a synced block stays undecidable under live blocks
    view.observe(x1, 5.0)
    view.observe(y1, 6.0, synced=True)
    feed(view, [x2, x3], start=7.0)
    assert view.undecidable_forks == [a1.id]
    assert [r.fork for r in view.penalty_records()] == [0, 0]


def test_live_observation_has_no_undecidable_forks():
    view, _, _ = race_view()
    assert view.undecidable_forks == []


def test_subjective_views_may_disagree():
    s = Script()
    a1, a2 = s.chain(0, 2)
    b1, b2 = s.chain(0, 2)
    v1 = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(v1, [a1, a2, b1, b2])
    v2 = NodeView(AdessParams(alpha=2, xi=1.0))
    feed(v2, [b1, b2, a1, a2])
    assert v1.adess_canonical() == a2.id
    assert v2.adess_canonical() == b2.id
    r1, r2 = v1.penalty_records()[0], v2.penalty_records()[0]
    assert r1.baseline == a2.id and r2.baseline == b2.id


def test_identical_order_gives_identical_state():
    s = Script()
    blocks = [s.block(0)]
    blocks += s.chain(blocks[0].id, 3)
    blocks.insert(2, s.block(0))
    blocks += s.chain(blocks[2].id, 2)
    views = [NodeView(AdessParams(alpha=2, xi=0.7)) for _ in range(2)]
    for v in views:
        feed(v, blocks)
    assert views[0].penalty_ledger() == views[1].penalty_ledger()
    assert views[0].adess_canonical() == views[1].adess_canonical()
    assert views[0].store.snapshot() == views[1].store.snapshot()
