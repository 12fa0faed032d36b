"""Command-line interface tests: exit codes, outputs, determinism."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from adess import cli
from adess.cli import SWEEP_HEADER, main, scenario_from_dict
from adess.errors import ConfigError


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"{key!r} not in output:\n{out}")


# -- scalar commands -----------------------------------------------------------

def test_min_xi(capsys):
    code, out, _ = run(capsys, "min-xi", "--v", "11", "--alpha", "1",
                       "--sigma", "1", "--delta", "0.999999")
    assert code == 0
    assert grab(out, "xi_star") == pytest.approx(1.0, abs=1e-4)
    assert grab(out, "profit_at_xi_star") <= 0.0


def test_profit(capsys):
    code, out, _ = run(capsys, "profit", "--v", "0", "--xi", "1",
                       "--alpha", "2")
    assert code == 0
    assert grab(out, "revenue") == pytest.approx(4.0)
    assert grab(out, "cost") == pytest.approx(15.0)
    assert grab(out, "profit") == pytest.approx(-11.0)


def test_safe_v(capsys):
    code, out, _ = run(capsys, "safe-v", "--xi", "1", "--alpha", "2")
    assert code == 0
    assert grab(out, "v_max") == pytest.approx(11.0)


def test_scalar_outputs_are_deterministic(capsys):
    _, a, _ = run(capsys, "min-xi", "--v", "25", "--alpha", "3",
                  "--delta", "0.999")
    _, b, _ = run(capsys, "min-xi", "--v", "25", "--alpha", "3",
                  "--delta", "0.999")
    assert a == b


def test_compare_protocols(capsys, tmp_path):
    code, out, _ = run(capsys, "compare-protocols", "--horizon", "10",
                       "--alpha", "3", "--delta", "0.99",
                       "--out", str(tmp_path))
    assert code == 0
    assert grab(out, "adess_pv") > 0 and grab(out, "nakamoto_pv") > 0
    lines = (tmp_path / "malicious_cost.csv").read_text().splitlines()
    assert lines[0] == "t,adess_cost,nakamoto_cost" and len(lines) == 11


def test_security_bound_strictly_decreasing(capsys, tmp_path):
    code, out, _ = run(capsys, "security-bound", "--k", "1..12",
                       "--rho", "0.8", "--lambda", "0.1",
                       "--delta-prop", "0.0", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "security_bound.csv").read_text().splitlines()
    assert rows[0] == "k,bound" and len(rows) == 13
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# -- config-driven commands ----------------------------------------------------

def scenario_json(tmp_path) -> str:
    cfg = {
        "protocol": "adess",
        "adess": {"alpha": 2, "xi": 1.0},
        "attack": {"alpha": 2, "xi": 1.0, "v": 11.0},
        "horizon": 40.0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_report_and_series(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "simulate", "--config", scenario_json(tmp_path),
                       "--out", str(out_dir))
    assert code == 0
    assert "attack_succeeded = True" in out
    assert grab(out, "realized_cost") == pytest.approx(15.0)
    report = (out_dir / "report.txt").read_text()
    assert "[run]" in report and "[tree]" in report
    series = (out_dir / "series.csv").read_text()
    assert series.splitlines()[0] == "time,node,head,height"


def test_an_out_that_cannot_be_a_directory_exits_one_before_the_run(
        capsys, tmp_path, monkeypatch):
    # `simulate` made --out only after the whole run, and then ended in a
    # FileExistsError or NotADirectoryError traceback
    def no_run(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = scenario_json(tmp_path)
    for out_dir in (cfg, str(Path(cfg) / "out")):
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", out_dir)
        assert code == 1 and "error:" in err, err
        assert "Traceback" not in err


def test_simulate_rerun_is_byte_identical(capsys, tmp_path):
    cfg = scenario_json(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run(capsys, "simulate", "--config", cfg, "--out", str(a_dir))
    run(capsys, "simulate", "--config", cfg, "--out", str(b_dir))
    assert (a_dir / "report.txt").read_bytes() \
        == (b_dir / "report.txt").read_bytes()
    assert (a_dir / "series.csv").read_bytes() \
        == (b_dir / "series.csv").read_bytes()


def test_sweep_profile(capsys, tmp_path):
    cfg = {"kind": "profit",
           "attack": {"alpha": 2, "xi": 1.0, "v": 5.0},
           "grid": {"param": "v", "values": [0, 2, 4, 6, 8]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "sweep", "--config", str(path),
                       "--out", str(out_dir))
    assert code == 0 and "rows = 5" in out
    rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert rows[0] == SWEEP_HEADER and len(rows) == 6
    meta = json.loads((out_dir / "sweep.meta.json").read_text())
    assert meta["rows"] == 5 and meta["kind"] == "profit"
    # byte-identical on rerun
    again = tmp_path / "again"
    run(capsys, "sweep", "--config", str(path), "--out", str(again))
    assert (again / "sweep.csv").read_bytes() \
        == (out_dir / "sweep.csv").read_bytes()


def test_sweep_hashrate_kind(capsys, tmp_path):
    cfg = {"kind": "hashrate", "attack": {"xi": 1.0},
           "grid": {"n_max": 4}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "sweep", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "n,hashrate"
    assert [float(r.split(",")[1]) for r in rows[1:]] == [2.0, 4.0, 8.0, 16.0]


def test_check_props_suite(capsys):
    code, out, _ = run(capsys, "check-props", "--suite", "corollary1")
    assert code == 0
    assert "corollary1: 400/400 pass" in out


# -- failure modes -------------------------------------------------------------

def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["min-xi"])  # --v is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # flags that no code read: a file-less command's --out, the classic
    # surplus on the economics commands, compare-protocols' payoff and the
    # sweep's seed (no sweep kind draws a random number)
    for argv in (["safe-v", "--xi", "1", "--out", "x"],
                 ["min-xi", "--v", "1", "--eps-extra", "0.5"],
                 ["compare-protocols", "--horizon", "5", "--v", "5"],
                 ["sweep", "--config", "x.json", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "security-bound", "--k", "1..3",
                       "--rho", "0.5", "--lambda", "0.1",
                       "--delta-prop", "0.0", "--variant", "literal")
    assert code == 1 and "error:" in err


def test_bad_config_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--config",
                       str(tmp_path / "missing.json"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"protocol": "pow"}')
    code, _, err = run(capsys, "simulate", "--config", str(bad))
    assert code == 1
    code, _, err = run(capsys, "check-props", "--suite", "nope")
    assert code == 1


def test_string_seed_in_config_exits_one(capsys, tmp_path):
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": "7"}')
    code, _, err = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and "seed" in err


def test_unbounded_horizon_exits_one_before_any_event(capsys, tmp_path):
    cfg = tmp_path / "long.json"
    cfg.write_text('{"horizon": 1e9}')
    code, _, err = run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and "horizon" in err
    assert "Traceback" not in err


#: honest hashrates whose scale a run cannot hold: the draw's
#: inf * tick / inf was NaN, and the attacker's difficulty overflowed mid-run
OVERFLOWING_RATES = [
    ({"horizon": 10, "n_honest_nodes": 2,
      "honest_hashrates": {"n0": 1e308, "n1": 1e308},
      "mining": {"mode": "stochastic", "tick": 0.01}}, "hashrates"),
    ({"horizon": 10, "honest_hashrates": {"n0": 1e308}}, "overflows"),
    # budish's unit-rate chain: every cumulative difficulty from block 3 on
    # was inf, so fork choice fell back to first-seen order
    ({"horizon": 10, "honest_hashrates": {"n0": 1e308},
      "attacker_strategy": "budish"}, "overflows"),
]


@pytest.mark.parametrize("cfg, named", OVERFLOWING_RATES)
def test_overflowing_hashrates_exit_one_before_any_event(capsys, tmp_path,
                                                         cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "simulate", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and named in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("delays", [{"n0,n1": 0.5}, [["n0", "n1"]]])
def test_misshapen_delays_are_config_errors_naming_delays(capsys, tmp_path,
                                                          delays):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_honest_nodes": 2, "delays": delays}))
    code, _, err = run(capsys, "simulate", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and "delays" in err
    assert "Traceback" not in err
    with pytest.raises(ConfigError, match="delays"):
        scenario_from_dict({"n_honest_nodes": 2, "delays": delays})


def test_overflowing_attack_cost_exits_one(capsys):
    code, _, err = run(capsys, "safe-v", "--xi", "5", "--alpha", "2000")
    assert code == 1 and "error:" in err and "overflow" in err


def test_removed_attack_fields_are_config_errors(capsys, tmp_path):
    # AttackParams no longer has the inert beta and latency fields, nor the
    # N no caller set
    for key in ("beta", "latency", "N"):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({"attack": {key: 0.5}})
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"kind": "profit", "attack": {key: 0.5},
                                   "grid": {"values": [1.0]}}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert code == 1 and "error:" in err and key in err
    # nor AdessParams the inert latency_bound, nor a mining mode the unread
    # seed (the scenario's seed draws the blocks)
    for section, key in (("adess", "latency_bound"), ("mining", "seed")):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({section: {key: 5}})
    with pytest.raises(ConfigError, match="seed"):
        scenario_from_dict({"mining": {"mode": "stochastic", "seed": 5}})
    # nor a difficulty rule a target block time: every rule retargets to 1;
    # nor a beta or an epoch length its mode never reads (each ran, and wrote
    # the report of the same config without it)
    with pytest.raises(ConfigError, match="target_block_time"):
        scenario_from_dict({"difficulty": {"mode": "full",
                                           "target_block_time": 2.0}})
    for rule, key in (({"mode": "full", "beta": 0.5}, "beta"),
                      ({"mode": "partial", "beta": 0.5, "epoch_length": 7},
                       "epoch_length")):
        with pytest.raises(ValueError, match=key):
            scenario_from_dict({"difficulty": rule})


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {"honest_hashrates": 5}),
    ("simulate", {"eclipse_set": 5}),
    ("simulate", {"delays": 5}),
    ("simulate", {"mining": 5}),
    ("simulate", {"horizon": "x"}),
    ("simulate", {"n_honest_nodes": "3"}),
    ("simulate", {"delay": None}),
    ("simulate", {"attack_start_height": None}),
    ("simulate", {"attacker_strategy": "fixed_growth", "growth": "x"}),
    ("simulate", []),
    ("sweep", {"grid": 5}),
    ("sweep", {"grid": {"values": 5}}),
    ("sweep", []),
    # bool is an int in Python, so JSON true/false once passed as 1/0
    ("simulate", {"horizon": True}),
    ("simulate", {"seed": True}),
    ("simulate", {"delay": False}),
    ("simulate", {"n_honest_nodes": True}),
    ("simulate", {"attack_start_height": True}),
    ("simulate", {"attacker_strategy": "fixed_growth", "growth": True}),
    ("simulate", {"n_honest_nodes": 2,
                  "honest_hashrates": {"n0": 1.0, "n1": True}}),
    ("simulate", {"n_honest_nodes": 2, "delays": [["n0", "n1", True]]}),
    # like "seed": "7", a quoted number is not a number
    ("simulate", {"n_honest_nodes": 2,
                  "honest_hashrates": {"n0": 1.0, "n1": "0.5"}}),
    ("simulate", {"n_honest_nodes": 2, "delays": [["n0", "n1", "0.3"]]}),
    # an int field given a fraction or a boolean, or a float field given a
    # boolean: alpha 2.5 decided no fork, and true ran as 1
    ("simulate", {"adess": {"alpha": 2.5}, "attack": {"alpha": 2.5}}),
    ("simulate", {"adess": {"alpha": True}, "attack": {"alpha": True}}),
    ("simulate", {"attack": {"sigma": 0.5}}),
    ("simulate", {"difficulty": {"mode": "epoch", "epoch_length": 2.5}}),
    ("simulate", {"mining": {"mode": "stochastic", "tick": True}}),
    ("simulate", {"attack": {"v": True}}),
    ("simulate", {"attack_start_height": 2.5}),
    # sweep sizes: 2.5 wrote 2 rows, true 1, and 7.9 wrote 7
    ("sweep", {"kind": "hashrate", "grid": {"n_max": 2.5}}),
    ("sweep", {"kind": "hashrate", "grid": {"n_max": True}}),
    ("sweep", {"kind": "malicious-cost", "grid": {"horizon": 7.9}}),
    # a delay on a link that does not exist was ignored
    ("simulate", {"n_honest_nodes": 2, "delays": [["n0", "n9", 0.5]]}),
    ("simulate", {"n_honest_nodes": 2, "delays": [["attackr", "n1", 0.5]]}),
    ("simulate", {"n_honest_nodes": 2, "delays": [["n1", "att_obs", 5.0]]}),
    ("simulate", {"eclipse_from_honest": 5}),
    ("simulate", {"mining": {"mode": "pow"}}),
    ("simulate", '{"horizon": 10,'),  # text, written as is: not valid JSON
    ("sweep", {"grid": {"start": 0, "stop": 1, "step": 0}}),
    ("sweep", {"grid": {"param": "v", "start": 1e17,
                        "stop": 1.0000000000000003e17, "step": 1}}),
    ("sweep", {"grid": {"start": 2, "stop": 1, "step": 1}}),  # empty
    ("sweep", {"grid": {"param": "alpha", "values": [1.0]}}),
    # a negative surplus: -5 failed mid-run, -1 stalled the attacker
    ("simulate", {"attacker_strategy": "budish", "horizon": 30,
                  "adess": {"alpha": 2},
                  "attack": {"alpha": 2, "epsilon_extra": -5}}),
    # an int no float holds, in a float field: each was an OverflowError
    ("simulate", {"attack": {"v": 10 ** 400}}),
    ("simulate", {"adess": {"xi": 10 ** 400}, "attack": {"xi": 10 ** 400}}),
    ("simulate", {"mining": {"mode": "stochastic", "tick": 10 ** 400}}),
    ("simulate", {"delay": 10 ** 400}),
    ("simulate", {"n_honest_nodes": 2, "delays": [["n0", "n1", 10 ** 400]]}),
    ("simulate", {"honest_hashrates": {"n0": 10 ** 400}}),
    ("sweep", {"attack": {"v": 10 ** 400}, "grid": {"values": [1.0]}}),
    ("sweep", {"grid": {"param": "v", "values": [10 ** 400]}}),
    # no run reads attack.B: 7 wrote the report of a run without it
    ("simulate", {"adess": {"alpha": 2},
                  "attack": {"alpha": 2, "xi": 1.0, "v": 11.0, "B": 7}}),
    ("sweep", {"kind": "nope"}),
    ("simulate", {"n_honest_node": 2}),  # a misspelt key
])
def test_malformed_config_shape_exits_one(capsys, tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code, _, err = run(capsys, command, "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["compare-protocols", "--horizon", "1", "--alpha", "3"],
    ["compare-protocols", "--horizon", "200000"],
    ["security-bound", "--k", "1..3", "--rho", "2", "--lambda", "0.1",
     "--delta-prop", "0.0"],
])
def test_refused_flag_commands_make_no_out(capsys, tmp_path, argv):
    # each exited 1 after making its --out
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1 and "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


SRC = Path(__file__).resolve().parent.parent / "src"

#: A child's address space cap, as `ulimit -v 800000`: an oversized list
#: fails with MemoryError instead of filling the machine.
PROBE_MEMORY = 800_000 * 1024

#: Prints the seconds `main` took, then exits with its code.
PROBE = ("import sys, time; from adess.cli import main; "
         "t = time.perf_counter(); code = main(sys.argv[1:]); "
         "print(time.perf_counter() - t); sys.exit(code)")


def _sweep(kind: str, grid: dict) -> list:
    return ["sweep", {"kind": kind, "grid": grid}]


HUGE = str(10 ** 400)  # no float holds it


@pytest.mark.parametrize("argv", [
    _sweep("hashrate", {"n_max": 2000}),  # 2.0 ** 1024 overflows
    _sweep("hashrate", {"n_max": 1e12}),
    _sweep("hashrate", {"n_max": 10 ** 400}),  # no float holds it
    _sweep("hashrate", {"n_max": float("-inf")}),
    _sweep("malicious-cost", {"horizon": 1e12}),
    _sweep("profit", {"param": "v", "start": 1e17, "stop": 2e17, "step": 1}),
    _sweep("profit", {"param": "v", "start": 0, "stop": 1, "step": 1e-300}),
    # few points, but 1e17 + 1 == 1e17
    _sweep("profit", {"param": "v", "start": 1e17,
                      "stop": 1.0000000000000003e17, "step": 1}),
    ["security-bound", "--k", "1..1000000000", "--rho", "0.3",
     "--lambda", "1", "--delta-prop", "0.1"],
    ["compare-protocols", "--horizon", "1000000000000"],
    ["compare-protocols", "--horizon", "6000", "--sigma", "5000"],
    # attack plans past the plan-size bound, or whose sizes no float holds
    ["min-xi", "--v", "5", "--b", "1000000"],
    ["profit", "--v", "1", "--xi", "1", "--b", "100000000"],
    ["profit", "--v", "1", "--xi", "0.000001", "--alpha", "50000000"],
    ["profit", "--v", "1", "--xi", "1", "--alpha", HUGE],
    ["profit", "--v", "1", "--xi", "1", "--n", HUGE],
    ["profit", "--v", "1", "--xi", "1", "--tau", HUGE],
    ["safe-v", "--xi", "1", "--sigma", HUGE],
    ["profit", "--v", "1", "--xi", "1e308"],  # N(1+xi) overflows
    ["safe-v", "--xi", "1e308"],
    # the settlement bound overflows: (1 - p)^k, k itself, e^(lambda delta)
    ["security-bound", "--k", "1..1000", "--rho", "1", "--lambda", "1",
     "--delta-prop", "2", "--variant", "literal"],
    ["security-bound", "--k", f"{HUGE}..{HUGE}", "--rho", "0.5",
     "--lambda", "1", "--delta-prop", "0.1"],
    ["security-bound", "--k", "1..2", "--rho", "0.5", "--lambda", "1",
     "--delta-prop", "1e300"],
    # rejected before a dict of every node is built
    ["simulate", {"n_honest_nodes": 100_000_000}],
    # a values grid is bounded before any value is read
    _sweep("profit", {"param": "v", "values": [1.0] * 200_000}),
    # block-time draws whose success chance p is subnormal or 0.0: each
    # exited 1 only after it had made an empty --out
    ["simulate", {"honest_hashrates": {"n0": 1e-307}, "seed": 2, "horizon": 5,
                  "mining": {"mode": "stochastic", "tick": 0.01}}],
    ["simulate", {"mining": {"mode": "stochastic", "tick": 1e-320},
                  "horizon": 5}],
    ["simulate", {"honest_hashrates": {"n0": 0.1}, "horizon": 5,
                  "mining": {"mode": "stochastic", "tick": 5e-324}}],
    # a NaN rate wrote k,nan rows
    ["security-bound", "--k", "1..3", "--rho", "1", "--lambda", "nan",
     "--delta-prop", "0.5", "--variant", "literal"],
    ["security-bound", "--k", "1..3", "--rho", "1", "--lambda", "1",
     "--delta-prop", "nan", "--variant", "literal"],
    # p_B (K + B) or c overflows a revenue, cost or split cost to inf, or
    # to nan times a discount that underflowed to 0: each exited 0
    ["profit", "--v", "1", "--xi", "1", "--pb", "1e308", "--b", "5"],
    ["profit", "--v", "1", "--xi", "1", "--pb", "1e308", "--b", "5",
     "--delta", "1e-200"],
    ["profit", "--v", "1", "--xi", "1", "--c", "1e308"],
    ["safe-v", "--xi", "1", "--pb", "1e308"],
    ["safe-v", "--xi", "1", "--pb", "1e308", "--delta", "1e-320"],
    ["min-xi", "--v", "1", "--c", "1e308"],
    ["compare-protocols", "--c", "1e308", "--xi", "1", "--horizon", "20"],
    ["compare-protocols", "--c", "1e308", "--xi", "1", "--horizon", "20",
     "--delta", "1e-320"],
    ["simulate", {"horizon": -1}],
    # a start/stop/step grid of 100,001 points wrote 100,001 rows
    _sweep("profit", {"param": "v", "start": 0, "stop": 100_000, "step": 1}),
    # p = 2.3e-308 is a normal float, yet its largest draw underflows: this
    # ran while no draw of its seed came near 1
    ["simulate", {"honest_hashrates": {"n0": 2.3e-306}, "horizon": 5,
                  "mining": {"mode": "stochastic", "tick": 0.01}}],
])
def test_oversized_inputs_exit_one_quickly(tmp_path, argv):
    if argv[0] in ("sweep", "simulate"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--config", str(path)]
    if argv[0] in ("sweep", "simulate", "security-bound",
                   "compare-protocols"):
        argv = [*argv, "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC), "ADESS_LOG": "error"},
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (PROBE_MEMORY, PROBE_MEMORY)))
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    # the error was also logged under the default level: a second line
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "out").exists()


def test_a_start_stop_step_grid_admits_exactly_the_row_bound():
    # the points the loop yields are counted, not (stop - start) / step
    assert len(cli._grid_points({"start": 0, "stop": 99_999, "step": 1})) \
        == cli._MAX_ROWS == 100_000
    with pytest.raises(ConfigError, match="got 100001"):
        cli._grid_points({"start": 0, "stop": 100_000, "step": 1})


@pytest.mark.parametrize("grid", [
    {"param": "v", "values": [True, "3"]},
    {"param": "v", "values": [1.0, "3"]},
    {"param": "v", "start": True, "stop": "2", "step": 1},
    {"param": "xi", "start": 0, "stop": 2, "step": "1"},
])
def test_sweep_grid_booleans_and_strings_are_not_numbers(capsys, tmp_path,
                                                          grid):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"kind": "profit", "grid": grid}))
    code, _, err = run(capsys, "sweep", "--config", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "grid values must be a finite number" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_bad_log_level_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("ADESS_LOG", "chatty")
    code, _, err = run(capsys, "safe-v", "--xi", "1")
    assert code == 1 and "ADESS_LOG" in err


def test_log_level_accepted(capsys, monkeypatch):
    monkeypatch.setenv("ADESS_LOG", "info")
    code, out, _ = run(capsys, "safe-v", "--xi", "1", "--alpha", "2")
    assert code == 0 and grab(out, "v_max") == pytest.approx(11.0)
