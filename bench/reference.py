"""A fixed pure-Python reference kernel that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes.  The timed loop runs this kernel in short bursts between
operations, and each operation's latency is scaled by how fast the kernel
ran next to it (see `scale`), so a slow phase of the host slows both and
largely cancels out.  The kernel does the kinds of work the package does:
small-object allocation, attribute access, dict inserts and lookups,
parent-pointer walks and float arithmetic.  It uses nothing from the
package, so a change to the package does not move it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter_ns

#: Kernel executions per burst; a burst's time is their median.
BURST = 5

#: Nominal time of one kernel execution, in ms.  Scaled latencies are
#: latencies at the speed where the kernel takes exactly this long, about
#: the speed of a busy 2-vCPU cloud machine.
NOMINAL_MS = 2.0

#: How the package's times follow the kernel's across the host's phases:
#: a time scales as the kernel's time to this power.  When the host turns
#: quiet the kernel runs up to twice as fast, the package's operations only
#: about 1.7 times (fitted slopes of log time on log kernel time, over
#: 32 windows of 5 s: 0.75 to 0.87 for the three kinds of operation, about
#: 0.6 for interpreter set-up; 0.66 for sim_forky between a quiet and a busy
#: set of runs), so dividing by the kernel's time outright would
#: over-correct.
SPEED_EXPONENT = 0.75

_NODES = 1500


class _Node:
    __slots__ = ("key", "parent", "height", "weight")

    def __init__(self, key: int, parent, weight: float):
        self.key = key
        self.parent = parent
        self.height = 0 if parent is None else parent.height + 1
        self.weight = weight


def kernel() -> float:
    """One execution: build a random-ish tree, index it, walk it."""
    nodes = {}
    children: dict = {}
    parent = None
    total = 0.0
    for i in range(_NODES):
        node = _Node(i, parent, (i % 97) * 0.25 + 1.0)
        nodes[i] = node
        children.setdefault(None if parent is None else parent.key,
                            []).append(i)
        parent = node if i % 5 else nodes[(i * 7) // 11]
        total += node.weight ** 1.5 / (1.0 + node.height)
    for i in range(0, _NODES, 60):
        x = nodes[i]
        while x is not None:
            total += x.weight
            x = x.parent
    return total + len(children)


def burst() -> int:
    """Median nanoseconds of BURST kernel executions.  The garbage collector
    is off meanwhile: its pauses would depend on the heap the workload left
    behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(BURST):
            start = perf_counter_ns()
            kernel()
            times.append(perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(ns: float, ref_ns: float) -> float:
    """`ns` measured while the kernel took `ref_ns`, as ms at the nominal
    speed."""
    return ns / 1e6 * (NOMINAL_MS * 1e6 / ref_ns) ** SPEED_EXPONENT
