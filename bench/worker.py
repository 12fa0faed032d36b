"""Run one workload in this interpreter and print a JSON summary.

Started by run.py in a fresh interpreter with PYTHONPATH=src.  It imports the
package, generates the workload's inputs, prints `ready` (run.py times set-up
up to that line; with `--setup-only` it then prints one reference burst's ns
and stops), then measures in a closed loop: one operation starts after
the previous one ends, in a single thread.  Whole rounds run: at least two,
so every operation is replayed, and more while the next is expected to end
within `--seconds`.

Untraced (`--trace 0`): every operation is timed and its output checked.
Bursts of the reference kernel (reference.py) run between operations, at
least every REF_EVERY_S and at the end of every round, so that run.py can
scale each latency by the machine's speed around it.
Traced (`--trace 1`): untraced and traced rounds alternate; the traced ones
give per-layer counts and self times, and the pair gives the tracing
overhead.  Spans are written to `--spans` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import reference
import workloads
from tracer import Tracer

TRAFFIC_FROM_OUTPUTS = ("blocks", "plan_evals", "sweep_rows")

#: Longest wall time between two reference bursts, unless one operation
#: takes longer.
REF_EVERY_S = 0.25


class Checker:
    """Output checks across the rounds of one run."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.expected = wl.expected_digests()
        self.first: Dict[int, str] = {}
        self.first_traffic: dict = {}
        self.failures: List[str] = []
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def op(self, i: int, outcome: dict) -> None:
        d = outcome["digest"]
        if not outcome["ok"]:
            self.fail(f"op {i}: output check failed")
        elif self.expected is not None and (
                i >= len(self.expected) or self.expected[i] != d):
            self.fail(f"op {i}: digest {d} differs from the recorded one")
        elif self.first.setdefault(i, d) != d:
            self.fail(f"op {i}: digest {d} differs from an earlier replay")

    def round(self, outcomes: List[dict], traffic: dict) -> None:
        for message in self.wl.round_check(outcomes):
            self.fail(message)
        for key, count in traffic.items():
            first = self.first_traffic.setdefault(key, count)
            if count != first:
                self.fail(f"round traffic {key}={count} differs from {first}")


class RefClock:
    """Reference bursts between operations.  `bursts` holds each burst's
    time in ns; `op_burst[k]` is the index of the burst before the k-th
    timed operation, and another burst always follows it."""

    def __init__(self):
        self.bursts: List[float] = []
        self.op_burst: List[int] = []
        self.last = 0.0
        self.burst()

    def burst(self) -> None:
        self.bursts.append(reference.burst())
        self.last = perf_counter()

    def before_op(self) -> None:
        if perf_counter() - self.last >= REF_EVERY_S:
            self.burst()
        self.op_burst.append(len(self.bursts) - 1)


def run_round(wl: workloads.Workload, checker: Checker, latencies: list,
              tracer: Optional[Tracer] = None,
              clock: Optional[RefClock] = None) -> dict:
    """One pass over the workload's operations; returns the round's traffic."""
    outcomes = []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        if clock is not None:
            clock.before_op()
        start = perf_counter_ns()
        try:
            out, error = op.call(), None
        except Exception as e:  # count it and keep measuring
            out, error = None, e
        latencies.append(perf_counter_ns() - start)
        if tracer is not None:
            tracer.end_operation()
        outcome = check_op(op, i, out, error, checker)
        outcomes.append(outcome)
    traffic = {k: sum(o.get(k, 0) for o in outcomes)
               for k in TRAFFIC_FROM_OUTPUTS}
    if tracer is not None:
        traffic.update(forks_max=tracer.forks_max, heads_max=tracer.heads_max,
                       canonical_calls=tracer.calls[
                           "forkchoice.adess_canonical"],
                       ancestor_distance=tracer.ancestor_distance)
    checker.round(outcomes, traffic)
    if clock is not None:
        clock.burst()
    return traffic


def check_op(op: workloads.Op, i: int, out, error: Optional[Exception],
             checker: Checker) -> dict:
    """Check one operation's output; an operation that raised, or whose
    output cannot be read, counts as failed."""
    try:
        if error is not None:
            raise error
        outcome = op.check(out)
    except Exception as e:  # count it and keep measuring
        checker.fail(f"op {i} raised {e!r}")
        return {}
    checker.op(i, outcome)
    return outcome


def timed(wl: workloads.Workload, seconds: float) -> dict:
    checker = Checker(wl)
    latencies: list = []
    rounds = 0
    traffic: dict = {}
    start = last = perf_counter()
    clock = RefClock()
    while rounds < 2 or 2 * perf_counter() - start - last <= seconds:
        last = perf_counter()
        traffic = run_round(wl, checker, latencies, clock=clock)
        rounds += 1
    return {"rounds": rounds, "latencies_ns": latencies,
            "ref_ns": clock.bursts, "op_burst": clock.op_burst,
            "traffic": traffic, "failed": checker.failed,
            "failures": checker.failures,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def layer_metrics(windows: List[dict], blocks: int) -> dict:
    """Per-round per-layer metrics, averaged over the traced rounds'
    `Tracer.window()` snapshots."""
    n = len(windows)
    calls = windows[-1]["calls"]  # exact: every traced round is identical
    self_s = {k: sum(w["self_ns"][k] for w in windows) / n / 1e9
              for k in windows[0]["self_ns"]}
    out = {}
    for name in ("chain.insert", "chain.is_ancestor",
                 "chain.ancestor_at_height", "forkchoice.observe",
                 "forkchoice.adess_canonical", "mining.next_block_time",
                 "mining.adjust_difficulty", "economics.attack_plan_profit",
                 "economics.min_deterring_xi", "cli.main"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("forkchoice.observe", "forkchoice.adess_canonical"):
        c = calls[name]
        out[f"{name}.us_per_call"] = self_s[name] / c * 1e6 if c else 0.0
    out["chain.snapshot.self_s"] = self_s["chain.snapshot"]
    out["chain.ancestor_distance"] = windows[-1]["ancestor_distance"]
    canon = calls["forkchoice.adess_canonical"]
    out["forkchoice.heads_max"] = windows[-1]["heads_max"]
    out["forkchoice.heads_mean_at_canonical"] = (
        windows[-1]["heads_at_canonical"] / canon if canon else 0.0)
    out["forkchoice.forks_max"] = windows[-1]["forks_max"]
    out["netsim.run_scenario.calls"] = calls["netsim.run_scenario"]
    out["netsim.self_s"] = self_s["netsim.run_scenario"]
    draws = calls["mining.next_block_time"]
    out["netsim.draw_useful_ratio"] = blocks / draws if draws else 0.0
    out["economics.brute_force_optimal_plan.self_s"] = self_s[
        "economics.brute_force_optimal_plan"]
    for layer in ("chain", "forkchoice", "mining", "economics", "cli"):
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    return out


def traced(wl: workloads.Workload, seconds: float,
           spans_path: Optional[Path]) -> dict:
    checker = Checker(wl)
    tracer = Tracer()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    windows: List[dict] = []
    latencies: list = []
    traffic: dict = {}
    start = last = perf_counter()
    while not traced_walls or 2 * perf_counter() - start - last <= seconds:
        last = t = perf_counter()
        run_round(wl, checker, latencies)
        plain_walls.append(perf_counter() - t)
        tracer.reset_counts()
        t = perf_counter()
        with tracer.installed():
            traffic = run_round(wl, checker, latencies, tracer)
        traced_walls.append(perf_counter() - t)
        windows.append(tracer.window())
        if windows[-1]["calls"] != windows[0]["calls"]:
            checker.fail("per-layer call counts differ between rounds")
    metrics = layer_metrics(windows, traffic["blocks"])
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    if spans_path is not None:
        with open(spans_path, "w") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for s in tracer.spans:
                fh.write(",".join(map(str, s)) + "\n")
    return {"rounds": len(traced_walls), "traffic": traffic,
            "layer_metrics": metrics, "failed": checker.failed,
            "failures": checker.failures, "attempted": len(latencies),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.seed, args.size, args.scratch)
    try:
        print("ready", flush=True)
        if args.setup_only:
            # the machine's speed right after set-up, to scale it by
            print(reference.burst(), flush=True)
            return 0
        if args.trace:
            result = traced(wl, args.seconds, args.spans)
        else:
            result = timed(wl, args.seconds)
    finally:
        wl.close()
    result["ops_per_round"] = len(wl.ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
