"""Batch command-line front door.

Subcommands map one-to-one onto the library: `simulate` and `sweep` read a
JSON config whose keys mirror the ScenarioConfig / AttackParams field names;
the scalar commands (`min-xi`, `safe-v`, `profit`, ...) take everything as
flags and print their results; `compare-protocols` takes no payoff flag
(`--v`, `--pb`, `--b`).  The commands that write files check their inputs,
then make `--out` (default ./out), then do the work, so a refused input
leaves no directory; only `simulate` takes `--seed`.  Identical flags and
seed produce byte-identical files.  Exit status: 0 success, 1 domain or
output error, 2 usage error.
Diagnostic verbosity on stderr is controlled by the ADESS_LOG environment
variable (error, info or debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from . import economics
from .economics import AttackParams
from .errors import AdessError, ConfigError, SolverFailure, number
from .forkchoice import AdessParams
from .mining import (CertaintyEquivalent, DifficultyRule, Stochastic,
                     required_hashrate_series)
from .netsim import ScenarioConfig, run_scenario

log = logging.getLogger("adess")

SWEEP_HEADER = "param_point, revenue, cost, profit, xi_star, v_max"

#: Most rows (or grid points) one command may write; a larger size fails as a
#: ConfigError before the first row, so no size hangs or exhausts memory.
_MAX_ROWS = 100_000


def _size(what: str, value) -> int:
    """`value` as a row count, rejected outside [0, _MAX_ROWS]."""
    if not 0 <= value <= _MAX_ROWS:
        raise ConfigError(f"{what} must be in [0, {_MAX_ROWS}], "
                          f"got {value!r}")
    return int(value)


def _setup_logging():
    level = os.environ.get("ADESS_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"ADESS_LOG must be one of {sorted(levels)}")
    logging.basicConfig(stream=sys.stderr, level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

@contextmanager
def _config_shape(what: str):
    """Turn a value of the wrong shape or type into a ConfigError."""
    try:
        yield
    except (AttributeError, TypeError) as e:
        raise ConfigError(f"bad {what} config: {e}") from None


def _build(cls, data: dict, what: str):
    with _config_shape(what):
        return cls(**data)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from parsed JSON; keys mirror
    field names."""
    with _config_shape("scenario"):
        cfg = _build(ScenarioConfig, _scenario_kwargs(dict(data)), "scenario")
        cfg.validate()
    return cfg


def _scenario_kwargs(data: dict) -> dict:
    """ScenarioConfig's arguments: each key a field, a section its class."""
    known = {f.name for f in fields(ScenarioConfig)}
    sections = {"adess": AdessParams, "attack": AttackParams,
                "difficulty": DifficultyRule}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if key in sections:
            data[key] = _build(sections[key], value, key)
        elif key == "mining":
            m = dict(value)
            modes = {"ce": CertaintyEquivalent, "stochastic": Stochastic}
            mode = m.pop("mode", "ce")
            if mode not in modes:
                raise ConfigError(f"unknown mining mode {mode!r}")
            data[key] = _build(modes[mode], m, "mining")
        elif key == "delays":  # [sender, receiver, delay] triples
            try:
                data[key] = {(s, n): d for s, n, d in value}
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad delays config: {e}") from None
        elif key == "honest_hashrates":
            data[key] = dict(value.items())
        elif key in ("eclipse_set", "eclipse_from_honest"):
            data[key] = tuple(value)
    return data


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def _attack_params(args) -> AttackParams:
    """AttackParams from the economics flags, each stored under its field's
    name; a flag the subcommand lacks, or leaves unset, keeps the default."""
    return AttackParams(**{f.name: getattr(args, f.name)
                           for f in fields(AttackParams)
                           if getattr(args, f.name, None) is not None})


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    cfg = scenario_from_dict(data)
    out = _out_dir(args)
    log.info("running scenario: protocol=%s strategy=%s seed=%d",
             cfg.protocol, cfg.attacker_strategy, cfg.seed)
    report = run_scenario(cfg)
    _write(out / "report.txt", report.to_text())
    _write(out / "series.csv", report.series_csv())
    print(f"attack_succeeded = {report.attack_succeeded}")
    print(f"realized_cost = {report.realized_cost!r}")
    print(f"realized_revenue = {report.realized_revenue!r}")
    return 0


def cmd_min_xi(args) -> int:
    params = _attack_params(args)
    xi_star = economics.min_deterring_xi(args.v, params)
    profit = economics.adess_attack_profit(
        replace(params, v=args.v, xi=xi_star)).profit
    print(f"xi_star = {xi_star!r}")
    print(f"profit_at_xi_star = {profit!r}")
    return 0


def cmd_safe_v(args) -> int:
    params = _attack_params(args)
    v_max = economics.safe_value_interval(args.xi, params)
    print(f"v_max = {v_max!r}")
    return 0


def cmd_profit(args) -> int:
    params = _attack_params(args)
    br = economics.attack_plan_profit(params, tau=args.tau, N=args.n)
    print(f"revenue = {br.discounted_revenue!r}")
    print(f"cost = {br.discounted_cost!r}")
    print(f"profit = {br.profit!r}")
    return 0


def _malicious_rows(params: AttackParams, horizon
                    ) -> Tuple[List[str], float, float]:
    """Both protocols' split-cost series as CSV rows, and present values."""
    horizon = _size("horizon", number("sweep sizes", horizon, True))
    a_series, a_pv = economics.malicious_cost_series("adess", params, horizon)
    n_series, n_pv = economics.malicious_cost_series("nakamoto", params,
                                                     horizon)
    rows = ["t,adess_cost,nakamoto_cost"]
    for t, (a, n) in enumerate(zip(a_series, n_series), start=1):
        rows.append(f"{t},{a!r},{n!r}")
    return rows, a_pv, n_pv


def cmd_compare_protocols(args) -> int:
    rows, a_pv, n_pv = _malicious_rows(_attack_params(args), args.horizon)
    out = _out_dir(args)
    _write(out / "malicious_cost.csv", "\n".join(rows) + "\n")
    print(f"adess_pv = {a_pv!r}")
    print(f"nakamoto_pv = {n_pv!r}")
    return 0


def _parse_krange(spec: str) -> List[int]:
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"bad k range {spec!r}, expected LO..HI") from None
    if hi < lo:
        raise ConfigError("empty k range")
    _size("the k range's length", hi - lo + 1)
    return list(range(lo, hi + 1))


def cmd_security_bound(args) -> int:
    lines = ["k,bound"]
    for k in _parse_krange(args.k):
        b = economics.guo_ren_bound(k, args.rho, args.lambda_rate,
                                    args.delta_prop, variant=args.variant)
        lines.append(f"{k},{b!r}")
    _write(_out_dir(args) / "security_bound.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# -- sweeps -----------------------------------------------------------------

def _grid_points(grid: dict) -> List[float]:
    if "values" in grid:
        _size("grid points", len(grid["values"]))
        pts = [float(number("grid values", x)) for x in grid["values"]]
    else:
        try:
            start, stop, step = (float(number("grid values", grid[k]))
                                 for k in ("start", "stop", "step"))
        except KeyError as e:
            raise ConfigError(f"grid is missing {e}") from None
        if step <= 0:
            raise ConfigError("grid step must be > 0")
        # a negative count is an empty grid, reported below
        _size("grid points", max((stop - start) / step, 0.0))
        pts = []
        x = start
        while x <= stop + 1e-12:
            pts.append(round(x, 12))
            if x + step == x:
                raise ConfigError(f"grid step {step!r} does not move {x!r}")
            x += step
        _size("grid points", len(pts))  # the bound above admits one more
    if not pts:
        raise ConfigError("empty grid")
    return pts


def _sweep_profit(params: AttackParams, grid: dict) -> Iterator[str]:
    """Check the grid now; each row's plan search runs as it is read."""
    param = grid.get("param", "xi")
    if param not in ("xi", "v"):
        raise ConfigError(f"sweep parameter must be xi or v, got {param!r}")
    points = _grid_points(grid)

    def rows():
        yield SWEEP_HEADER
        for x in points:
            pt = replace(params, **{param: x})
            br = economics.adess_attack_profit(pt)
            try:
                xi_star = economics.min_deterring_xi(pt.v, pt)
            except SolverFailure:
                xi_star = float("nan")
            v_max = economics.safe_value_interval(pt.xi, pt) if pt.xi > 0 \
                else float("nan")
            yield (f"{x!r}, {br.discounted_revenue!r}, "
                   f"{br.discounted_cost!r}, {br.profit!r}, "
                   f"{xi_star!r}, {v_max!r}")
    return rows()


def _sweep_hashrate(params: AttackParams, grid: dict) -> List[str]:
    n_max = _size("n_max", number("sweep sizes", grid.get("n_max", 10), True))
    rule = DifficultyRule.full()
    series = required_hashrate_series(params.xi, n_max, rule)
    rows = ["n,hashrate"]
    for n, h in enumerate(series, start=1):
        rows.append(f"{n},{h!r}")
    return rows


def _sweep_malicious(params: AttackParams, grid: dict) -> List[str]:
    horizon = grid.get("horizon", 4 * params.horizon_blocks)
    return _malicious_rows(params, horizon)[0]


def cmd_sweep(args) -> int:
    data = _load_json(args.config)
    kind = data.get("kind", "profit")
    params = _build(AttackParams, data.get("attack", {}), "attack")
    grid = data.get("grid", {})
    with _config_shape("sweep"):
        # the cheap kinds' rows are built here; profit's only after --out
        if kind == "profit":
            rows = _sweep_profit(params, grid)
        elif kind == "hashrate":
            rows = _sweep_hashrate(params, grid)
        elif kind == "malicious-cost":
            rows = _sweep_malicious(params, grid)
        else:
            raise ConfigError(f"unknown sweep kind {kind!r}")
        out = _out_dir(args)
        rows = list(rows)
    _write(out / "sweep.csv", "\n".join(rows) + "\n")
    meta = {"kind": kind, "grid": grid, "attack": asdict(params),
            "rows": len(rows) - 1}
    _write(out / "sweep.meta.json",
           json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"rows = {len(rows) - 1}")
    return 0


# -- property suites --------------------------------------------------------

def _suite_proposition1() -> Tuple[int, int]:
    """Proposition 1: the penalty protocol needs weakly more attack hashrate,
    in exact arithmetic at 500 points with xi above the classic surplus."""
    grid = [(Fraction(i, 10), eps, N, adj)
            for i in range(1, 26)
            for eps in (Fraction(1, 100), Fraction(5, 100))
            for N in (1, 2, 3, 4, 5)
            for adj in ("none", "full")]
    results = economics.proposition1_check(grid)
    ok = sum(1 for r in results if r.adess_weakly_greater)
    return ok, len(results)


def _suite_theorem1() -> Tuple[int, int]:
    """Theorem 1: a finite penalty deters every transaction value; the attack
    is unprofitable at xi* and at 20 larger penalties, for 10 (v, alpha)."""
    ok = total = 0
    for v in (0.1, 1.0, 10.0, 100.0, 1e4):
        for depth in (2, 7):
            total += 1
            params = AttackParams(p_B=1.0, c=1.0, delta=0.999, alpha=depth,
                                  sigma=0)
            try:
                xi_star = economics.min_deterring_xi(v, params)
            except SolverFailure:
                continue
            ok += all(economics.adess_attack_profit(
                replace(params, v=v, xi=xi_star + 0.25 * k)).profit < 0
                for k in range(21))
    return ok, total


#: Corollary 1's parameter points, one per penalty
COROLLARY1_PARAMS = tuple(
    AttackParams(p_B=1.0, c=1.0, delta=1.0, alpha=3, sigma=0, xi=xi)
    for xi in (0.25, 0.5, 1.0, 2.0))


def _suite_corollary1() -> Tuple[int, int]:
    """Corollary 1: the attack is unprofitable at 100 values spread over
    [0, v_max) for each point of COROLLARY1_PARAMS."""
    ok = total = 0
    for params in COROLLARY1_PARAMS:
        v_max = economics.safe_value_interval(params.xi, params)
        for i in range(100):
            total += 1
            v = v_max * i / 100.0
            ok += economics.adess_attack_profit(replace(params, v=v)).profit < 0
    return ok, total


SUITES = {"proposition1": _suite_proposition1,
          "theorem1": _suite_theorem1,
          "corollary1": _suite_corollary1}


def cmd_check_props(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; "
                              f"choose from {sorted(SUITES) + ['all']}")
        ok, total = SUITES[name]()
        status = "pass" if ok == total else "FAIL"
        print(f"{name}: {ok}/{total} {status}")
        failed = failed or ok != total
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_out(p: argparse.ArgumentParser):
    p.add_argument("--out", default="./out", help="output directory")


def _add_config(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True)
    _add_out(p)


def _add_cost_flags(p: argparse.ArgumentParser):
    p.add_argument("--c", type=float, help="unit hashrate cost")
    p.add_argument("--delta", type=float, help="discount factor")
    p.add_argument("--alpha", type=int, help="confirmation depth")
    p.add_argument("--sigma", type=int,
                   help="blocks between fork and the transaction")


def _add_econ_flags(p: argparse.ArgumentParser):
    """The cost flags and the payoff flags the attack-profit commands read."""
    p.add_argument("--pb", dest="p_B", metavar="PB", type=float,
                   help="block reward")
    _add_cost_flags(p)
    p.add_argument("--b", dest="B", type=int, help="extra secret blocks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adess",
        description="Fork-choice penalty protocol laboratory: simulations "
                    "and attack economics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario from a JSON config")
    _add_config(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("min-xi", help="smallest deterring penalty for v")
    p.add_argument("--v", type=float, required=True)
    _add_econ_flags(p)
    p.set_defaults(func=cmd_min_xi)

    p = sub.add_parser("safe-v", help="largest safe transaction value")
    p.add_argument("--xi", type=float, required=True)
    _add_econ_flags(p)
    p.set_defaults(func=cmd_safe_v)

    p = sub.add_parser("profit", help="attack profit breakdown")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--tau", type=int, default=0, help="extra pace blocks")
    p.add_argument("--n", type=int, default=None,
                   help="incumbent blocks at the boundary")
    _add_econ_flags(p)
    p.set_defaults(func=cmd_profit)

    p = sub.add_parser("compare-protocols",
                       help="malicious split cost under both protocols")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--xi", type=float)
    _add_cost_flags(p)
    _add_out(p)
    p.set_defaults(func=cmd_compare_protocols)

    p = sub.add_parser("security-bound",
                       help="settlement failure bound over a k range")
    p.add_argument("--k", required=True, help="range LO..HI")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--lambda", dest="lambda_rate", type=float, required=True)
    p.add_argument("--delta-prop", type=float, required=True)
    p.add_argument("--variant", choices=("literal", "abs"), default="abs")
    _add_out(p)
    p.set_defaults(func=cmd_security_bound)

    p = sub.add_parser("sweep", help="grid sweep from a JSON config")
    _add_config(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-props", help="run a property suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_check_props)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AdessError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
