"""Hand a simulation's arrivals to its arrive handler one (member, block)
pair at a time, so a test can look at the simulator between any two."""

from __future__ import annotations

from functools import partial


def per_arrival(sim, step) -> None:
    """Split every arrive event of `sim` into single-member, single-block
    runs, in push order, calling `step(node, bid, arrive)` for each pair;
    `arrive()` runs the simulator's own handler on that pair alone."""
    on_arrive = sim._on_arrive

    def split(runs, blocks):
        for _, _, members, _ in runs:
            for node, *_ in members:
                run = sim._run((node,))
                for bid in blocks:
                    step(node, bid, partial(on_arrive, [run], [bid]))

    sim._on_arrive = split
