"""Hand a simulation's arrivals to its arrive handler one run at a time, and
one member at a time where the batch is one block, so a test can look at
the simulator between any two; and list the runs every sender reaches."""

from __future__ import annotations

from functools import partial

from adess.netsim import ATTACKER


def stretches(sim) -> list:
    """Every sender's (delay, runs) stretches, the miners' in name order and
    then the attacker's, each built by `_wire` as its first fan-out would."""
    return [stretch for sender in (*sim._miners, ATTACKER)
            for stretch in sim._wire(sender)]


def per_arrival(sim, step) -> None:
    """Split every arrive event of `sim` into its runs, in push order, and a
    single-block event's runs into single-member runs, calling
    `step(nodes, blocks, arrive)` for each; `arrive()` runs the simulator's
    own handler on that run alone.  A multi-block run is stepped whole: a
    member split out of it would read its class's view already ahead."""
    on_arrive = sim._on_arrive

    def split(runs, blocks):
        for view, members in runs:
            for part in [members] if len(blocks) > 1 else zip(members):
                step([node for node, *_ in part], blocks,
                     partial(on_arrive, [(view, part)], blocks))

    sim._on_arrive = split
