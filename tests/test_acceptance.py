"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Each check states its tolerances and grids inline next to
the property it guards, except 01-03: they run the `adess check-props`
suites (`adess.cli.SUITES`), so each of those claims has one grid.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

from adess import economics
from adess.cli import COROLLARY1_PARAMS, SUITES
from adess.economics import (AttackParams, adess_attack_cost,
                             adess_attack_profit, affine_cost_term,
                             affine_cost_term_derivative, boundary_blocks,
                             brute_force_optimal_plan, cost_term,
                             cost_term_derivative, guo_ren_bound,
                             malicious_cost_series, nakamoto_min_profitable_v,
                             nakamoto_zero_profit_v,
                             partial_adjustment_attack_cost,
                             safe_value_interval)
from adess.errors import DomainError
from adess.forkchoice import AdessParams
from adess.mining import (CertaintyEquivalent, DifficultyRule, Stochastic,
                          next_block_time, sustained_growth_cost)
from adess.netsim import ScenarioConfig, latency_split_check, run_scenario

from fuzz_trees import build_random_view
from test_forkchoice_fuzz import check_invariants


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_acceptance_01_hashrate_dominance_grid():
    # 500 exact-arithmetic points, penalty above the classic surplus
    start = time.time()
    ok, total = SUITES["proposition1"]()
    elapsed = time.time() - start
    report(1, "penalty protocol needs weakly more attack hashrate",
           ok == total == 500 and elapsed < 1.0,
           f"{total} points in {elapsed:.2f}s")


def test_acceptance_02_deterring_penalty_exists():
    # v up to 1e4 at two depths, each at xi* and 20 larger penalties
    start = time.time()
    ok, total = SUITES["theorem1"]()
    elapsed = time.time() - start
    report(2, "a finite penalty deters every transaction value",
           ok == total == 10 and elapsed < 1.0, f"{elapsed:.2f}s")


def test_acceptance_03_safe_value_interval():
    ok, total = SUITES["corollary1"]()
    ok = ok == total == 400
    for p in COROLLARY1_PARAMS:
        v_max = safe_value_interval(p.xi, p)
        assert v_max == -adess_attack_profit(replace(p, v=0.0)).profit
        ok &= abs(adess_attack_profit(replace(p, v=v_max)).profit) < 1e-9
    report(3, "profit negative below v_max and zero at v_max", ok)


def test_acceptance_04_plan_optimality():
    ok = True
    grid = [(alpha, xi, delta)
            for alpha in (2, 3, 4, 5)
            for xi in (0.5, 1.0, 1.5, 2.0, 3.0)
            for delta in (0.9, 0.95, 0.97, 0.99, 0.999)]
    assert len(grid) == 100
    for alpha, xi, delta in grid:
        p = AttackParams(v=1.0, p_B=1.0, c=1.0, delta=delta, alpha=alpha,
                         sigma=0, xi=xi)
        plan = brute_force_optimal_plan(p, tau_max=10, n_extra=10, b_max=20)
        ok &= plan == (0, alpha, 0)
    report(4, "head fork, boundary broadcast, no extra blocks is optimal",
           ok, "100-point grid, tau<=10 N<=alpha+10 B<=20")


def test_acceptance_05_derivative_fidelity():
    rng = random.Random(20240817)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 10)
        xi = rng.uniform(0.1, 3.0)
        delta = rng.uniform(0.8, 0.999)
        fd = (cost_term(n, xi + h, delta)
              - cost_term(n, xi - h, delta)) / (2 * h)
        d = cost_term_derivative(n, xi, delta)
        worst = max(worst, abs(d - fd) / max(abs(fd), 1e-12))
        rho = rng.uniform(0.01, 0.5)
        fn = rng.uniform(0.5, 2.0)
        fd2 = (affine_cost_term(n, xi + h, delta, rho, fn)
               - affine_cost_term(n, xi - h, delta, rho, fn)) / (2 * h)
        d2 = affine_cost_term_derivative(n, xi, delta, rho, fn)
        worst = max(worst, abs(d2 - fd2) / max(abs(fd2), 1e-12))
    report(5, "marginal-cost derivatives match finite differences",
           worst < 1e-4, f"worst rel err {worst:.2e}")


def test_acceptance_06_classic_limit():
    grid = [(c, N, eps)
            for c in (1.5, 2.0, 3.0, 5.0, 10.0)
            for N in (2, 3, 5, 8, 10)
            for eps in (0.1, 0.5)]
    assert len(grid) == 50
    worst = 0.0
    for c, N, eps in grid:
        p = AttackParams(p_B=1.0, c=c, delta=1.0 - 1e-6, alpha=N, sigma=0,
                         epsilon_extra=eps)
        v0 = nakamoto_zero_profit_v(p)
        limit = nakamoto_min_profitable_v(replace(p, delta=1.0))
        assert limit == (c - 1.0) * N + c * eps
        worst = max(worst, abs(v0 - limit) / abs(limit))
    report(6, "zero-profit value approaches the undiscounted limit",
           worst < 1e-3, f"worst rel err {worst:.2e}")


def test_acceptance_07_fuzz_canonical_and_witness():
    start = time.time()
    rng = random.Random(7)
    for _ in range(10_000):
        view = build_random_view(random.Random(rng.getrandbits(32)))
        check_invariants(view)
    elapsed = time.time() - start
    report(7, "one canonical head and a never-penalized chain always exist",
           elapsed < 30.0, f"10000 trees in {elapsed:.1f}s")


def test_acceptance_08_difficulty_regime_mapping():
    ok = True
    for beta in (0.25, 0.5, 1.0):
        for N, xi in ((2, 1.0), (3, 1.2), (5, 0.5), (4, 2.0)):
            got = partial_adjustment_attack_cost(N, xi, beta)
            # same block count, full adjustment at the softened rate
            want = sustained_growth_cost(beta * xi, boundary_blocks(N, xi),
                                         DifficultyRule.full())
            ok &= abs(got - want) < 1e-9
    # no retarget inside the horizon: constant unit cost per attack block,
    # so the surcharge over the N incumbent blocks is exactly c * xi each
    for N, xi in ((5, 1.0), (4, 0.5), (10, 0.2), (3, 2.0)):
        K = boundary_blocks(N, xi)
        cost = sustained_growth_cost(xi, K, DifficultyRule.epoch(10 ** 6))
        ok &= cost == float(K)
        ok &= abs((cost - N) - N * xi) < 1e-12
    report(8, "partial maps to softened full; epoch surcharge is c*xi", ok)


def test_acceptance_09_mining_fidelity():
    ce = next_block_time(4.0, 2.0, CertaintyEquivalent())
    ok = ce == 2.0
    mode = Stochastic(tick=0.01)
    rng = random.Random(31337)
    n = 100_000
    mean = sum(next_block_time(1.0, 1.0, mode, rng) for _ in range(n)) / n
    ok &= abs(mean - 1.0) < 0.02
    a = [next_block_time(2.0, 1.5, mode, random.Random(5)) for _ in range(200)]
    b = [next_block_time(2.0, 1.5, mode, random.Random(5)) for _ in range(200)]
    ok &= a == b
    report(9, "block-time model is unbiased, exact in CE mode, replayable",
           ok, f"stochastic mean {mean:.4f}")


def base_cfg(**kw) -> ScenarioConfig:
    base = dict(
        protocol="adess",
        adess=AdessParams(alpha=2, xi=1.0),
        attack=AttackParams(alpha=2, xi=1.0, v=11.0),
        horizon=40.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_acceptance_10_realized_cost_matches_closed_form():
    start = time.time()
    closed_form = adess_attack_cost(2, 1.0)  # 15
    rep = run_scenario(base_cfg())
    ok = abs(rep.realized_cost - closed_form) < 1e-9
    total = 0.0
    n_seeds = 1000
    for seed in range(n_seeds):
        srep = run_scenario(base_cfg(mining=Stochastic(tick=0.01),
                                     horizon=100.0, seed=seed))
        total += srep.realized_cost
    mean = total / n_seeds
    ok &= abs(mean - closed_form) / closed_form < 0.05
    elapsed = time.time() - start
    report(10, "simulated attack cost reproduces the closed form",
           ok and elapsed < 60.0,
           f"CE exact, stochastic mean {mean:.2f} vs {closed_form}, "
           f"{elapsed:.1f}s")


def test_acceptance_11_latency_split():
    split = dict(
        protocol="adess",
        adess=AdessParams(alpha=2, xi=2.0),
        attack=AttackParams(alpha=2, xi=2.0, v=11.0),
        delay=6.0, attacker_strategy="fixed_growth", growth=2.0,
        horizon=30.0)
    plain = latency_split_check(ScenarioConfig(**split))
    fast = latency_split_check(
        ScenarioConfig(**{**split, "attacker_strategy": "accelerated",
                          "growth": None}))
    nolag = latency_split_check(ScenarioConfig(**{**split, "delay": 0.0}))
    ok = (plain.split_persists and not fast.split_persists
          and not nolag.split_persists)
    report(11, "delay-bound split persists unless the attacker accelerates",
           ok)


def test_acceptance_12_malicious_split_cost():
    p = AttackParams(p_B=1.0, c=1.0, delta=1.0, alpha=3, sigma=0, xi=1.0)
    adess_series, _ = malicious_cost_series("adess", p, horizon=30)
    nak_series, _ = malicious_cost_series("nakamoto", p, horizon=30)
    ok = all(x == 0.0 for x in adess_series[3:])
    ok &= all(x > 0.0 for x in adess_series[:3])
    ok &= nak_series == [1.0] * 30
    cheap = AttackParams(p_B=1.0, c=1.0, delta=0.999, alpha=2, sigma=0,
                         xi=0.5)
    _, pv_a1 = malicious_cost_series("adess", cheap, 2000)
    _, pv_n1 = malicious_cost_series("nakamoto", cheap, 2000)
    dear = AttackParams(p_B=1.0, c=1.0, delta=0.7, alpha=6, sigma=0, xi=2.0)
    _, pv_a2 = malicious_cost_series("adess", dear, 2000)
    _, pv_n2 = malicious_cost_series("nakamoto", dear, 2000)
    ok &= pv_a1 < pv_n1 and pv_a2 > pv_n2
    report(12, "no a-priori ranking of permanent-split costs", ok)


def test_acceptance_13_settlement_bound():
    rho, lam, d = 0.9, 0.1, 0.5
    p = rho * math.exp(lam * d)
    ok = True
    prev = guo_ren_bound(1, rho, lam, d, variant="abs")
    for k in range(2, 12):
        cur = guo_ren_bound(k, rho, lam, d, variant="abs")
        ok &= cur < prev
        ok &= abs(cur / prev - (1.0 - p)) < 1e-12
        prev = cur
    for bad_rho in (0.5, 1.0):
        try:
            guo_ren_bound(3, bad_rho, 0.1, 0.0, variant="literal")
            ok = False
        except DomainError:
            pass
    report(13, "settlement bound decays geometrically; literal form "
               "rejects p <= 1", ok)
