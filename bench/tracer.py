"""Per-layer tracing by attribute replacement.

`Tracer.installed()` swaps each public entry point listed in `ENTRY_POINTS`
for a timing wrapper, at every place the package binds it (a class
attribute, the defining module, and every `adess.*` module that imported the
name, such as `adess.netsim.next_block_time`), and puts the originals back
on exit.  Nothing under `src/` is edited.

Each wrapped call is one span: (span id, parent span id, operation id, name,
start ns, end ns).  Self time is the span's duration minus the durations of
its child spans; calls are synchronous and single-threaded, so children never
overlap and their durations are exactly the part of the parent they cover.
Self time and call counts are aggregated for every call; span tuples are kept
in memory up to `span_cap` and written out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: (span name, module, attribute path) of every wrapped entry point.
ENTRY_POINTS = (
    ("chain.insert", "adess.chain", "BlockTree.insert"),
    ("chain.is_ancestor", "adess.chain", "BlockTree.is_ancestor"),
    ("chain.ancestor_at_height", "adess.chain",
     "BlockTree.ancestor_at_height"),
    ("chain.snapshot", "adess.chain", "BlockTree.snapshot"),
    ("forkchoice.observe", "adess.forkchoice", "NodeView.observe"),
    ("forkchoice.adess_canonical", "adess.forkchoice",
     "NodeView.adess_canonical"),
    ("mining.next_block_time", "adess.mining", "next_block_time"),
    ("mining.adjust_difficulty", "adess.mining", "adjust_difficulty"),
    ("netsim.run_scenario", "adess.netsim", "run_scenario"),
    ("economics.attack_plan_profit", "adess.economics", "attack_plan_profit"),
    ("economics.min_deterring_xi", "adess.economics", "min_deterring_xi"),
    ("economics.brute_force_optimal_plan", "adess.economics",
     "brute_force_optimal_plan"),
    ("cli.main", "adess.cli", "main"),
)

Span = Tuple[int, int, int, str, int, int]


def _bindings(module_name: str, path: str):
    """Every (owner, attribute, original) that binds the entry point."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, path)
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "adess" or name.startswith("adess.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr, original))
    return found


class Tracer:
    """Span recorder plus the traffic counters read at layer boundaries."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self.op = 0
        self._stack: List[List[int]] = []  # [span id, child ns]
        self._next_sid = 0
        self.reset_counts()

    def reset_counts(self) -> None:
        """Start a fresh aggregation window (one workload round)."""
        self.calls: Dict[str, int] = {name: 0 for name, _, _ in ENTRY_POINTS}
        self.self_ns: Dict[str, int] = {name: 0 for name, _, _ in ENTRY_POINTS}
        self.ancestor_distance = 0
        self.heads_at_canonical = 0
        self.heads_max = 0
        self.forks_max = 0
        self._views: Dict[int, object] = {}

    def window(self) -> dict:
        """Counts and self times since the last `reset_counts`."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "ancestor_distance": self.ancestor_distance,
                "heads_at_canonical": self.heads_at_canonical,
                "heads_max": self.heads_max, "forks_max": self.forks_max}

    # -- counters read at the boundaries -----------------------------------

    def _on_ancestor_at_height(self, tree, bid, height):
        block = tree.blocks.get(bid)
        if block is not None and 0 <= height <= block.height:
            self.ancestor_distance += block.height - height

    def _on_observe(self, view, *args, **kwargs):
        self._views[id(view)] = view

    def _on_adess_canonical(self, view):
        self._views[id(view)] = view
        self.heads_at_canonical += len(view.tree.heads)

    def end_operation(self) -> None:
        """Read fork and head counts from every view the operation touched.

        Trees are append-only, so the final forks (blocks with two or more
        children) and heads (leaves) are the maxima over the operation."""
        for view in self._views.values():
            tree = view.tree
            forks = sum(1 for kids in tree.children.values() if len(kids) >= 2)
            self.forks_max = max(self.forks_max, forks)
            self.heads_max = max(self.heads_max, len(tree.heads))
        self._views.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            sid = self._next_sid
            self._next_sid = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if len(self.spans) < self.span_cap:
                    self.spans.append((sid, parent, self.op, name, start,
                                       end))
                else:
                    self.spans_dropped += 1

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        hooks = {
            "chain.ancestor_at_height": self._on_ancestor_at_height,
            "forkchoice.observe": self._on_observe,
            "forkchoice.adess_canonical": self._on_adess_canonical,
        }
        replaced = []
        try:
            for name, module, path in ENTRY_POINTS:
                bindings = _bindings(module, path)
                wrapper = self._wrap(name, bindings[0][2], hooks.get(name))
                for owner, attr, original in bindings:
                    setattr(owner, attr, wrapper)
                    replaced.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


def originals() -> Dict[Tuple[int, str], object]:
    """Current value of every binding of every entry point, for checking
    that a traced run put the originals back."""
    out = {}
    for _, module, path in ENTRY_POINTS:
        for owner, attr, value in _bindings(module, path):
            out[(id(owner), attr)] = value
    return out
