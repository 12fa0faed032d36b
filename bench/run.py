"""ADESS laboratory benchmark: one workload, timed or traced.

    python3 bench/run.py --workload sim_batch --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(bench/worker.py with PYTHONPATH=src); this process only starts it, times
set-up, stamps the result and prints it.  Set-up (interpreter start until
`adess` is imported and the inputs are generated) is timed in SETUP_PROBES
interpreters that stop there; `setup_s` is the median.  Each probe scales
its set-up by a reference burst it runs itself, on its own CPU.

Times are scaled to a nominal machine speed: each one is divided by the time
of the reference kernel (reference.py) measured around it and multiplied by
the kernel's nominal time.  A shared host's speed drifts by tens of percent
over minutes; the scaled times keep only the program's own cost.  The wall
times are printed and saved as well (`*_wall`).

The full result goes to bench/out/result-<workload>-seed<seed>-trace<0|1>.json
(spans of a traced run to bench/out/spans-<workload>-seed<seed>.csv).  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`, named and in the units of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 10
#: Percentiles a tail may be reported at; the tail is the highest one with
#: at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10

#: The work each workload's throughput counts, from the round's traffic.
THROUGHPUT = {
    "sim_deep": [("blocks_per_s", "blocks", "blocks/s")],
    "sim_forky": [("blocks_per_s", "blocks", "blocks/s")],
    "sim_batch": [("runs_per_s", "runs", "runs/s"),
                  ("blocks_per_s", "blocks", "blocks/s")],
    "econ_sweep": [("plan_evals_per_s", "plan_evals", "evals/s"),
                   ("sweep_rows_per_s", "sweep_rows", "rows/s")],
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "loadavg_1m_start": os.getloadavg()[0],
            "git_commit": git_commit()}


class WorkerFailed(Exception):
    pass


def start_worker(args, extra: list) -> tuple:
    """Start a worker and wait for its `ready` line; returns the process and
    the seconds from start to ready."""
    if not (ROOT / "src" / "adess").is_dir():
        raise WorkerFailed(f"no package source under {ROOT / 'src'}")
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--scratch", str(OUT)] + extra
    env = dict(os.environ, PYTHONPATH="src")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 60)
        raise WorkerFailed(f"worker did not start: {line!r}")
    return proc, setup


def finish(proc, timeout: float) -> str:
    """Wait for the worker (killing it after `timeout`) and return its
    remaining output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return out


def percentile(sorted_xs: list, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_xs)))
    return sorted_xs[k - 1]


def tail(sorted_xs: list):
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it, or None when there are too few."""
    n = len(sorted_xs)
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= TAIL_BEYOND:
            return p, percentile(sorted_xs, p)
    return None


def scaled_latencies(res: dict) -> list:
    """Every timed execution's latency in ms, scaled by the reference bursts
    just before and just after it."""
    refs = res["ref_ns"]
    return [reference.scale(ns, (refs[b] + refs[b + 1]) / 2)
            for ns, b in zip(res["latencies_ns"], res["op_burst"])]


def end_to_end(workload: str, res: dict, setup_s: float,
               setup_wall_s: float) -> dict:
    """Every end-to-end metric of the workload, named, with its unit.

    An operation's latency is the median of its scaled executions in the
    run: every run plays its round at least twice."""
    n = res["ops_per_round"]
    scaled = scaled_latencies(res)
    ms = sorted(statistics.median(scaled[i::n]) for i in range(n))
    wall = sorted(statistics.median(res["latencies_ns"][i::n]) / 1e6
                  for i in range(n))
    round_s = sum(ms) / 1000.0
    m = {"setup_s": (setup_s, "s"),
         "op_ms_p50": (statistics.median(ms), "ms"),
         "op_ms_mean": (statistics.fmean(ms), "ms")}
    t = tail(ms)
    if t is not None:
        m["op_ms_tail"] = (t[1], "ms")
        m["op_ms_tail_percentile"] = (t[0], "%")
        m["op_ms_tail_samples"] = (len(ms), "count")
    work = dict(res["traffic"], runs=n)
    for name, key, unit in THROUGHPUT[workload]:
        m[name] = (work[key] / round_s, unit)
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    m["failed_frac"] = (res["failed"] / len(res["latencies_ns"]), "ratio")
    m["setup_s_wall"] = (setup_wall_s, "s")
    m["op_ms_p50_wall"] = (statistics.median(wall), "ms")
    m["ref_ms_wall"] = (statistics.median(res["ref_ns"]) / 1e6, "ms")
    return m


def probe_setup(args) -> tuple:
    """Scaled and wall set-up times of SETUP_PROBES interpreters, each
    scaled by the reference burst it runs right after set-up."""
    scaled, walls = [], []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(args, ["--setup-only"])
        # the line may already sit in the reader's buffer, out of reach of
        # finish(), so it is read here
        line = proc.stdout.readline()
        finish(proc, 60)
        try:
            ref_ns = float(line)
        except ValueError:
            raise WorkerFailed("set-up probe printed no reference time")
        walls.append(setup)
        scaled.append(reference.scale(setup * 1e9, ref_ns) / 1e3)
    return scaled, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)
    bench_spec = spec()
    if args.workload not in [w["name"] for w in bench_spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    info = stamp()
    name = f"{args.workload}-seed{args.seed}"
    try:
        setups, setup_walls = probe_setup(args)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(OUT / f"spans-{name}.csv")]
        proc, setup = start_worker(args, extra)
        setup_walls.append(setup)
        res = json.loads(finish(proc, 4 * args.seconds + 90).splitlines()[-1])
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    info["loadavg_1m_end"] = os.getloadavg()[0]
    setup_s = statistics.median(setups)
    if args.trace:
        all_metrics = {m["name"]: (res["layer_metrics"][m["name"]], m["unit"])
                       for m in bench_spec["per_layer"]}
        attempted = res["attempted"]
        reported = bench_spec["per_layer"]
    else:
        all_metrics = end_to_end(args.workload, res, setup_s,
                                 statistics.median(setup_walls))
        attempted = len(res["latencies_ns"])
        reported = bench_spec["end_to_end"]
    failed = min(res["failed"], attempted)
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "stamp": info, "rounds": res["rounds"],
            "ops_per_round": res["ops_per_round"], "traffic": res["traffic"],
            "setup_samples_s": setups, "setup_wall_samples_s": setup_walls,
            "failures": res["failures"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in all_metrics.items()}}
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops in {res['rounds']} rounds, {failed} failed")
    for k, (v, u) in all_metrics.items():
        print(f"  {k:44s} {v:14.6g} {u}")
    print("  traffic per round: " + " ".join(
        f"{k}={v}" for k, v in res["traffic"].items()))
    for message in res["failures"]:
        print(f"  FAILED: {message}")
    print("  stamp: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": all_metrics[m["name"]][0],
                                "unit": m["unit"]} for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
