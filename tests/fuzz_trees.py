"""Random block trees for the fork-choice tests, with the stdlib only, so
`test_golden.py` can replay them without pytest or hypothesis installed."""

from __future__ import annotations

import random

from adess.chain import BlockTree
from adess.forkchoice import AdessParams, NodeView


def build_random_view(rng: random.Random, shuffled: bool = False) -> NodeView:
    """Feed a random tree (<= 200 steps, <= 6 extra forks) in arrival order.
    With `shuffled`, a step now and then appends 2-4 siblings to the store
    and observes them in a random order, so arrival order is not id order."""
    alpha = rng.randint(1, 4)
    xi = rng.choice([0.25, 0.5, 1.0, 2.0])
    view = NodeView(AdessParams(alpha=alpha, xi=xi), BlockTree())
    n = rng.randint(1, 200)
    forks_left = 6
    ids = [0]
    t = 1.0
    tips = [0]
    for _ in range(n):
        if forks_left > 0 and rng.random() < 0.15:
            parent = rng.choice(ids)
            forks_left -= 1
        else:
            parent = rng.choice(tips)
        k = rng.randint(2, 4) if shuffled and rng.random() < 0.05 else 1
        bids = [view.store.append_block(parent, 1.0) for _ in range(k)]
        rng.shuffle(bids)
        for bid in bids:
            view.observe(bid, t)
            t += 1.0
        ids += bids
        if parent in tips:
            tips.remove(parent)
        tips += bids
    return view


def out_of_id_order(view: NodeView) -> bool:
    """Whether `view` observed some block before one with a lower id."""
    ids = [bid for bid, _ in view.tree.arrivals]
    return ids != sorted(ids)
