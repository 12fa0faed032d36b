"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_spans(spans: list) -> int:
    """Number of spans that fall outside their parent, or whose children
    together last longer than they do."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict = {}
    bad = 0
    for _, parent, _, _, start, end in spans:
        if parent in by_id:
            _, _, _, _, pstart, pend = by_id[parent]
            if start < pstart or end > pend:
                bad += 1
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    for sid, _, _, _, start, end in spans:
        if child_ns.get(sid, 0) > end - start:
            bad += 1
    return bad


def bench(workload: str, trace: int,
          seed: int = workloads.DEFAULT_SEED) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported_with_its_unit(workload, trace):
    res = bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs(workload, tmp_path):
    def inputs(seed):
        wl = workloads.build(workload, seed, "tiny", tmp_path)
        wl.close()
        return wl.inputs
    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_traced_run_restores_wrapped_attributes(tmp_path):
    before = tracer.originals()
    wl = workloads.build("sim_deep", 1, "tiny", tmp_path)
    res = worker.traced(wl, 0.0, None)
    assert res["layer_metrics"]["netsim.run_scenario.calls"] == 2
    after = tracer.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # an untraced run that follows records nothing in a fresh tracer
    t = tracer.Tracer()
    res = worker.timed(wl, 0.0)
    assert res["failed"] == 0 and sum(t.calls.values()) == 0 and not t.spans


@pytest.mark.parametrize("workload", ("sim_forky", "econ_sweep"))
def test_two_runs_of_one_seed_give_identical_counts(workload, tmp_path):
    def counts():
        wl = workloads.build(workload, 3, "tiny", tmp_path)
        try:
            res = worker.traced(wl, 0.0, None)
        finally:
            wl.close()
        assert res["failed"] == 0, res["failures"]
        layer = {k: v for k, v in res["layer_metrics"].items()
                 if k.endswith(".calls") or k in (
                     "chain.ancestor_distance", "forkchoice.forks_max",
                     "forkchoice.heads_max")}
        return res["traffic"], layer
    first, second = counts(), counts()
    assert first == second
    assert any(first[0].values())


def test_self_times_and_children_add_up_to_parents(tmp_path):
    wl = workloads.build("sim_batch", 1, "tiny", tmp_path)
    t = tracer.Tracer(span_cap=10 ** 7)
    with t.installed():
        for op in wl.ops:
            op.call()
    assert t.spans_dropped == 0
    assert check_spans(t.spans) == 0
    # self time per name recomputed from the spans equals the aggregate
    child = {}
    for sid, parent, _, _, start, end in t.spans:
        child[parent] = child.get(parent, 0) + end - start
    self_ns = {}
    for sid, _, _, name, start, end in t.spans:
        own = (end - start) - child.get(sid, 0)
        self_ns[name] = self_ns.get(name, 0) + own
    assert self_ns == {k: v for k, v in t.self_ns.items() if v}
    # each run_scenario span is its self time plus its children
    for sid, _, _, name, start, end in t.spans:
        if name == "netsim.run_scenario":
            assert end - start >= child.get(sid, 0) > 0


def test_every_timed_operation_lies_between_two_reference_bursts(tmp_path):
    wl = workloads.build("econ_sweep", 1, "tiny", tmp_path)
    try:
        res = worker.timed(wl, 0.0)
    finally:
        wl.close()
    assert len(res["op_burst"]) == len(res["latencies_ns"])
    assert max(res["op_burst"]) + 1 < len(res["ref_ns"])
    assert all(ns > 0 for ns in res["ref_ns"])


def test_latencies_are_scaled_by_the_bursts_around_them():
    ref = run.reference
    nominal_ns = ref.NOMINAL_MS * 1e6
    res = {"latencies_ns": [4e6, 6e6], "op_burst": [0, 1],
           "ref_ns": [nominal_ns, nominal_ns, 3 * nominal_ns]}
    assert run.scaled_latencies(res) == pytest.approx(
        [4.0, 6.0 * 0.5 ** ref.SPEED_EXPONENT])


def test_recorded_digests_are_checked(tmp_path):
    wl = workloads.build("sim_batch", workloads.DEFAULT_SEED, "tiny", tmp_path)
    assert wl.expected_digests() is not None
    checker = worker.Checker(wl)
    checker.op(0, {"digest": "0" * 16, "ok": True})
    assert checker.failed == 1


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_batch", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
