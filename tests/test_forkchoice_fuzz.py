"""Randomized fork-choice invariants over generated block trees."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from adess.chain import BlockTree
from adess.forkchoice import AdessParams, NodeView

from fuzz_trees import build_random_view, out_of_id_order


def check_invariants(view: NodeView, deactivated_before=None):
    # exactly one canonical head, and it carries no active penalty
    head = view.adess_canonical()
    assert head in view.tree.heads
    assert view.active_penalties(head) == []
    # the constructive witness also carries no penalty record at all
    witness = view.never_penalized_witness()
    recs = view.penalty_records()
    assert all(not view.store.is_ancestor(r.child, witness)
               for r in recs)
    assert view.active_penalties(witness) == []
    # deactivation is permanent
    now_off = {(r.fork, r.child) for r in recs
               if r.deactivated_at is not None}
    if deactivated_before is not None:
        assert deactivated_before <= now_off
    return now_off


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_random_tree_invariants(seed):
    # every third seed: some siblings observed out of id order
    view = build_random_view(random.Random(seed), shuffled=seed % 3 == 2)
    check_invariants(view)


def test_shuffled_tree_invariants():
    # the shuffled trees of fixed seeds, of which some do observe blocks out
    # of id order, so the draws above can too
    shuffled = 0
    for seed in range(2, 150, 3):
        view = build_random_view(random.Random(seed), shuffled=True)
        check_invariants(view)
        shuffled += out_of_id_order(view)
    assert shuffled > 0


def test_deactivation_is_permanent_along_growth():
    rng = random.Random(42)
    for _ in range(20):
        alpha = rng.randint(1, 3)
        view = NodeView(AdessParams(alpha=alpha, xi=rng.choice([0.5, 1.0])),
                        BlockTree())
        tips = [0]
        t = 1.0
        off = set()
        for step in range(120):
            parent = rng.choice(tips) if rng.random() > 0.1 else \
                rng.choice(list(view.store.blocks))
            bid = view.store.append_block(parent, 1.0)
            view.observe(bid, t)
            t += 1.0
            if parent in tips:
                tips.remove(parent)
            tips.append(bid)
            if step % 10 == 9:
                off = check_invariants(view, deactivated_before=off)
        check_invariants(view, deactivated_before=off)
