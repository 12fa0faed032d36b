"""Attack-economics formula and solver tests.

All literal expected values below were frozen from independent term-by-term
evaluations of the closed forms.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adess import economics
from adess.economics import (AttackParams, _boundary_cost, _plan_blocks,
                             adess_attack_cost,
                             adess_attack_profit, affine_cost_term,
                             affine_cost_term_derivative,
                             affine_growth_cost_margin, attack_plan_profit,
                             boundary_blocks, broadcast_margin,
                             brute_force_optimal_plan, cost_term,
                             cost_term_derivative, expected_attack_hashrate,
                             fork_depth_growth, guo_ren_bound, left_sum,
                             malicious_cost_series, min_deterring_xi,
                             moroz_round_payoff, nakamoto_attack_profit,
                             nakamoto_min_profitable_v, nakamoto_zero_profit_v,
                             partial_adjustment_attack_cost, penalty_margin,
                             proposition1_check,
                             safe_value_interval)
from adess.errors import ConfigError, DomainError, SolverFailure
from adess.mining import DifficultyRule, sustained_growth_cost

from econ_grids import (ACCEPTANCE_04_GRID, ORACLE_GRID, SOLVER_FAILURES,
                        params)


# -- classic (pre-penalty) attacker -----------------------------------------

def test_budish_profit_direct():
    p = params(alpha=5, epsilon_extra=0.01)
    br = nakamoto_attack_profit(p)
    assert br.profit == pytest.approx(-0.01)
    assert br.discounted_revenue == pytest.approx(5.0)


def test_budish_break_even_at_v_equals_c_eps():
    p = params(alpha=5, epsilon_extra=0.01, v=0.01)
    assert nakamoto_attack_profit(p).profit == pytest.approx(0.0)


def test_min_profitable_v_general_case():
    p = params(c=2.0, alpha=3, epsilon_extra=0.0)
    assert nakamoto_min_profitable_v(p) == pytest.approx(3.0)
    p = params(c=1.2, alpha=10, epsilon_extra=0.05)
    assert nakamoto_min_profitable_v(p) == pytest.approx(2.06)
    p = params(epsilon_extra=0.07)
    assert nakamoto_min_profitable_v(p) == pytest.approx(0.07)


def test_zero_profit_v_near_one_matches_limit_formula():
    p = params(alpha=5, delta=1.0 - 1e-6, epsilon_extra=0.1)
    v0 = nakamoto_zero_profit_v(p)
    assert v0 == pytest.approx(nakamoto_min_profitable_v(p), rel=1e-3)


def test_moroz_round_payoff():
    assert moroz_round_payoff(10.0, 1.0, 1.0, 4, 0.0) == pytest.approx(14.0)
    assert moroz_round_payoff(0.0, 1.0, 1.0, 0, 0.0) == pytest.approx(0.0)
    assert moroz_round_payoff(0.0, 1.0, 1.0, 3, 1.0) == pytest.approx(-12.0)


# -- settlement-failure bound ------------------------------------------------

def test_guo_ren_abs_value():
    # p = 0.8, k = 6: (2 + 2*sqrt(5)) * 4 * 0.8 * 0.2^6
    b = guo_ren_bound(6, 0.8, 0.1, 0.0, variant="abs")
    assert b == pytest.approx(1.3254934435839123e-3, rel=1e-9)


def test_guo_ren_ratio_is_one_minus_p():
    p = 0.9 * math.exp(0.1 * 0.5)
    for k in range(1, 8):
        a = guo_ren_bound(k, 0.9, 0.1, 0.5, variant="abs")
        b = guo_ren_bound(k + 1, 0.9, 0.1, 0.5, variant="abs")
        assert b / a == pytest.approx(1.0 - p, rel=1e-9)
        assert b < a


def test_guo_ren_literal_domain_error():
    with pytest.raises(DomainError):
        guo_ren_bound(3, 0.5, 0.1, 0.0, variant="literal")
    with pytest.raises(DomainError):
        guo_ren_bound(3, 1.0, 0.1, 0.0, variant="literal")


def test_guo_ren_rejects_non_finite_rates():
    nan, inf = float("nan"), float("inf")
    for lam, d in ((nan, 0.5), (1.0, nan), (inf, 0.5), (1.0, inf)):
        for variant in ("literal", "abs"):
            with pytest.raises(ValueError, match="finite"):
                guo_ren_bound(2, 0.5, lam, d, variant=variant)


def test_guo_ren_literal_defined_above_one():
    assert guo_ren_bound(2, 1.0, 1.0, 0.5, variant="literal") != 0.0


# -- penalized-protocol cost and profit --------------------------------------

def test_boundary_blocks():
    assert boundary_blocks(5, 0.0) == 5
    assert boundary_blocks(2, 1.0) == 4
    assert boundary_blocks(2, 1.1) == 5
    # float-noise guard: 3 * 1.4 = 4.199999... must still give 5, not 6
    assert boundary_blocks(3, 0.4) == 5


def test_attack_cost_examples():
    assert adess_attack_cost(5, 0.0) == pytest.approx(5.0)
    assert adess_attack_cost(2, 1.0) == pytest.approx(15.0)  # 1+2+4+8


def test_attack_cost_increasing_in_n():
    costs = [adess_attack_cost(N, 0.8, delta=0.99) for N in range(1, 12)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_fork_depth_growth():
    assert fork_depth_growth(7, 0.3, 0) == pytest.approx(0.3)
    assert fork_depth_growth(10, 1.0, 5) == pytest.approx(1.5)


def test_head_fork_minimizes_cost():
    p = params(alpha=3, delta=0.99)
    profits = [attack_plan_profit(p, tau=tau).profit for tau in range(11)]
    assert max(range(11), key=lambda t: profits[t]) == 0


def test_attack_profit_examples():
    br = adess_attack_profit(params())
    assert br.discounted_revenue == pytest.approx(4.0)
    assert br.discounted_cost == pytest.approx(15.0)
    assert br.profit == pytest.approx(-11.0)
    assert adess_attack_profit(params(v=11.0)).profit == pytest.approx(0.0)


def test_zero_penalty_profit_is_v():
    for v in (0.0, 3.0, 42.0):
        assert adess_attack_profit(params(v=v, xi=0.0)).profit \
            == pytest.approx(v)


def test_profit_breakdown_identity():
    br = adess_attack_profit(params(v=7.0, delta=0.97, alpha=4, xi=0.6))
    assert br.profit == pytest.approx(
        br.discounted_revenue - br.discounted_cost)


def test_attack_params_reject_non_finite_values():
    nan, inf = float("nan"), float("inf")
    # nor a bool, nor an int no float holds
    for kw in (dict(v=nan), dict(c=inf), dict(xi=nan),
               dict(epsilon_extra=nan), dict(p_B=inf), dict(v=True),
               dict(v=10 ** 400)):
        with pytest.raises(ValueError):
            params(**kw)


def test_attack_params_reject_a_negative_surplus():
    # budish's surplus hashrate: -5 made the attacker's hashrate negative
    # mid-run, -1 stalled it, and -0.5 ran a "surplus" that was a deficit
    for bad in (-5.0, -1.0, -0.5, -1e-300):
        with pytest.raises(ValueError, match="epsilon_extra >= 0"):
            AttackParams(epsilon_extra=bad)
    assert AttackParams(epsilon_extra=0.0).epsilon_extra == 0.0


def test_attack_params_reject_non_int_sizes():
    # a fractional alpha would otherwise reach the plan search's range()
    # and fail there as a raw TypeError
    for field in ("alpha", "sigma", "B"):
        for bad in (2.5, 1.0, True, False, "2", None):
            with pytest.raises(ValueError, match="must be an int"):
                params(**{field: bad})
    with pytest.raises(ValueError):
        brute_force_optimal_plan(AttackParams(alpha=2.5))


def test_attack_cost_overflow_is_a_domain_error():
    # (1+xi)^n overflows a float well before the 12,000th boundary block
    with pytest.raises(DomainError):
        attack_plan_profit(params(xi=5.0, alpha=2000))


def test_adess_attack_cost_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        adess_attack_cost(2000, 5.0)


def test_partial_adjustment_cost_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        partial_adjustment_attack_cost(2000, 5.0, 1.0)


@pytest.mark.parametrize("call", [
    # a negative discount took a fractional power: a complex cost
    lambda: adess_attack_cost(3, 1.0, delta=-0.5),
    lambda: adess_attack_cost(3, 1.0, delta=1.5),
    lambda: adess_attack_cost(3, -0.5),
    lambda: adess_attack_cost(3, 1.0, c=0.0),
    lambda: adess_attack_cost(3, 1.0, c=math.nan),
    lambda: partial_adjustment_attack_cost(3, 1.0, 0.5, delta=-0.5),
    lambda: partial_adjustment_attack_cost(3, 1.0, 0.5, c=-1.0),
    lambda: partial_adjustment_attack_cost(3, 1.0, 0.0),
    lambda: partial_adjustment_attack_cost(3, 1.0, 1.5),
    lambda: partial_adjustment_attack_cost(0, 1.0, 0.5),
    lambda: sustained_growth_cost(1.0, 3, DifficultyRule.full(), delta=-0.5),
    lambda: sustained_growth_cost(1.0, 3, DifficultyRule.full(),
                                  unit_cost=0.0),
    # no boundary block: the margins read -0.0 and 0.0
    lambda: penalty_margin(1.0, 0, 0.5),
    lambda: affine_growth_cost_margin(1.0, 0.5, lambda n: 1.0, 0, 0.5),
    lambda: moroz_round_payoff(1, 1, 1, -1, 0.1),
    lambda: guo_ren_bound(3, 0.5, 1.0, 0.1, variant="x"),
    lambda: fork_depth_growth(0, 1.0, 0),
    lambda: malicious_cost_series("x", AttackParams(), 10),
    lambda: expected_attack_hashrate(1, 3, "x"),
])
def test_closed_forms_reject_inputs_outside_their_domain(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: penalty_margin(5.0, 2000, 0.5),
    lambda: affine_growth_cost_margin(5.0, 0.5, lambda n: 1.0, 2000, 0.5),
    lambda: moroz_round_payoff(1, 1, 1, 2000, 1),
    lambda: nakamoto_zero_profit_v(AttackParams(alpha=3, delta=1e-300)),
    lambda: nakamoto_attack_profit(AttackParams(p_B=1e308, alpha=2)),
    lambda: nakamoto_attack_profit(AttackParams(c=1e308, alpha=2,
                                                epsilon_extra=1.0)),
    lambda: broadcast_margin(AttackParams(alpha=1, p_B=1e308, v=1e308)),
    lambda: guo_ren_bound(3, 0.5, 1e3, 1.0),  # exp(lambda delay)
])
def test_closed_form_overflow_is_a_domain_error(call):
    with pytest.raises(DomainError, match="overflows a float"):
        call()


@pytest.mark.parametrize("call", [
    lambda: boundary_blocks(100_001, 0.0),
    lambda: boundary_blocks(2, math.nan),
    # N(1+xi) overflowed: ceil raised a bare OverflowError
    lambda: adess_attack_cost(2, 1e308),
    lambda: partial_adjustment_attack_cost(2, 1e308, 0.5),
    lambda: broadcast_margin(AttackParams(xi=1e308, alpha=2)),
    # K past the bound: the sums ran for seconds (N = 10**6) to minutes
    lambda: penalty_margin(1e-6, 10 ** 5, 0.5),
    lambda: adess_attack_cost(10 ** 6, 1e-6, 0.5),
    lambda: penalty_margin(1e-6, 10 ** 9, 0.5),
    lambda: affine_growth_cost_margin(1e-6, 0.5, lambda n: 1.0, 10 ** 9, 0.5),
    # an int N past the float range: N(1+xi) raised a bare OverflowError
    lambda: boundary_blocks(10 ** 400, 1.0),
    lambda: adess_attack_cost(10 ** 400, 1.0),
    lambda: partial_adjustment_attack_cost(10 ** 400, 1.0, 0.5),
    lambda: broadcast_margin(AttackParams(alpha=10 ** 400)),
])
def test_block_counts_past_the_plan_bound_are_a_domain_error(call):
    with pytest.raises(DomainError, match="at most 100000"):
        call()
    assert boundary_blocks(100_000, 0.0) == boundary_blocks(99_999, 1e-6) \
        == 100_000


# -- plan profits against a per-plan oracle ----------------------------------

def left_fold(terms):
    """Terms added left to right from 0, as CPython's `sum()` adds floats up
    to 3.11 (3.12 compensates it)."""
    return functools.reduce(operator.add, terms, 0)


def oracle_plan_profit(p: AttackParams, tau: int, N: int, B: int):
    """Each plan's profit from scratch, as one K-term and one B-term left
    fold.  `attack_plan_profit` must match it bit for bit on every Python."""
    d, c = p.delta, p.c
    g = 1.0 + fork_depth_growth(N, p.xi, tau)
    K = boundary_blocks(N, p.xi)
    revenue = d ** (N + B - 1) * (p.v + p.p_B * (K + B))
    cost = c * (left_fold(d ** (n / g) * g ** n for n in range(K))
                + left_fold(d ** (N + b) for b in range(B)))
    return revenue, cost, K + B


def assert_bit_identical(br, want):
    got = (br.discounted_revenue, br.discounted_cost,
           br.blocks_on_attacker_chain)
    assert got == want and repr(got) == repr(want)


def test_plan_profits_bit_identical_to_oracle():
    b_max = 6
    for p in ORACLE_GRID:
        n0 = p.alpha + p.sigma
        for tau, N in itertools.product(range(4), range(n0, n0 + 3)):
            for B in range(b_max + 1):
                want = oracle_plan_profit(p, tau, N, B)
                assert_bit_identical(attack_plan_profit(p, tau, N, B), want)


def test_default_plan_is_oracle_plan():
    p = params(alpha=3, sigma=1, xi=0.7, delta=0.97, v=4.0, B=2)
    assert_bit_identical(attack_plan_profit(p),
                         oracle_plan_profit(p, 0, 4, 2))


def oracle_best_plan(p: AttackParams, tau_max: int = 10, n_extra: int = 10,
                     b_max: int = 20):
    """First most profitable plan in (tau, N, B) order, by the oracle."""
    n0 = p.alpha + p.sigma
    plans = list(itertools.product(range(tau_max + 1),
                                   range(n0, n0 + n_extra + 1),
                                   range(b_max + 1)))
    profits = []
    for plan in plans:
        revenue, cost, _ = oracle_plan_profit(p, *plan)
        profits.append(revenue - cost)
    return plans[max(range(len(plans)), key=profits.__getitem__)]


def test_brute_force_is_first_argmax_of_oracle():
    # the grid has exact ties (xi = 0, delta = 1, p_B = c: every head-fork
    # plan earns v) and points where later N and B win (p_B > c)
    grid = dict(tau_max=3, n_extra=3, b_max=5)
    for p in ORACLE_GRID:
        assert brute_force_optimal_plan(p, **grid) == oracle_best_plan(p, **grid)


def test_brute_force_is_first_argmax_of_oracle_on_full_search_grid():
    for p in (params(alpha=2, xi=1.0, delta=0.999, v=1.0),
              params(alpha=1, xi=0.0, delta=1.0, v=1.0),
              params(alpha=2, xi=0.5, delta=0.99, p_B=1.5, v=3.0)):
        assert brute_force_optimal_plan(p) == oracle_best_plan(p)


def random_plan_params(rng: random.Random) -> AttackParams:
    """A seeded point biased to the corners: c near 0 or large, delta = 1,
    xi = 0, and p_B > c (later N and B win)."""
    c = rng.choice((rng.uniform(1e-9, 1e-3), rng.uniform(0.2, 5.0),
                    rng.uniform(50.0, 1e6)))
    return params(alpha=rng.randint(1, 6), sigma=rng.randint(0, 3),
                  xi=rng.choice((0.0, 0.0, rng.uniform(0.0, 3.0))),
                  delta=rng.choice((1.0, 1.0, rng.uniform(0.5, 1.0))),
                  v=rng.choice((0.0, rng.uniform(0.0, 50.0))), c=c,
                  p_B=rng.choice((c * rng.uniform(1.0, 3.0),
                                  rng.uniform(0.1, 5.0))))


def test_brute_force_is_first_argmax_of_oracle_on_random_params():
    # the skipped fork depths must never hide a new first maximum
    rng = random.Random(20261018)
    grid = dict(tau_max=4, n_extra=4, b_max=6)
    for _ in range(150):
        p = random_plan_params(rng)
        assert brute_force_optimal_plan(p, **grid) == oracle_best_plan(p, **grid)
    for _ in range(8):
        p = random_plan_params(rng)
        assert brute_force_optimal_plan(p) == oracle_best_plan(p)


def test_boundary_cost_is_left_sum_bit_for_bit():
    rng = random.Random(7)
    cases = [(1.0, 1.0, 1.0, 0), (0.9, 2.0, 2.0, 0), (1.0, 1.0, 1.0, 1),
             (0.9, 2.0, 1.5, 1)] + [
        (rng.uniform(0.01, 1.0), g, rng.choice((g, rng.uniform(1.0, g))),
         rng.randint(0, 60))
        for g in (rng.uniform(1.0, 4.0) for _ in range(200))]
    for delta, g, base, K in cases:
        want = left_sum(delta ** (n / g) * base ** n for n in range(K))
        assert repr(_boundary_cost(delta, g, base, K)) == repr(want)


def summing_search(p: AttackParams, tau_max: int, n_extra: int, b_max: int):
    """`brute_force_optimal_plan` without its skip, power table or shared
    tau-0 prefix: each N's powers taken on their own, every (tau, N)
    boundary summed in full and every B scanned, keeping the first strict
    maximum."""
    n0, d, c = p.horizon_blocks, p.delta, p.c
    rows = []
    for N in range(n0, n0 + n_extra + 1):
        K = _plan_blocks(p.xi, N, tau_max, b_max)
        rows.append((N, K, [(d ** (N + B - 1) * (p.v + p.p_B * (K + B)),
                             left_fold(d ** (N + b) for b in range(B)))
                            for B in range(b_max + 1)]))
    best, best_plan = None, None
    for tau in range(tau_max + 1):
        for N, K, row in rows:
            g = 1.0 + fork_depth_growth(N, p.xi, tau)
            boundary = _boundary_cost(d, g, g, K)
            for B, (revenue, secret) in enumerate(row):
                profit = revenue - c * (boundary + secret)
                if best is None or profit > best:
                    best, best_plan = profit, (tau, N, B)
    return best_plan


def edge_xi(N: int, target: float) -> float:
    """xi in [2, 12] at which (N(1+xi) - 1) ln(1+xi) is `target`: the log of
    the last power in N's tau-0 boundary.  A target near 709.78, the log of
    the largest float, puts the search's first overflow at some tau >= 1."""
    lo, hi = 2.0, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = (N * (1.0 + mid) - 1.0) * math.log1p(mid) < target
        lo, hi = (mid, hi) if below else (lo, mid)
    return lo


def test_deeper_fork_boundaries_cost_at_least_their_tau0_twins():
    # the search scans tau 0 only: at any fork depth tau >= 1 each term of a
    # boundary, and so its left fold, is at least its tau-0 twin, with no
    # margin, so no deeper plan can be a new strict maximum.  A term whose
    # power overflows is skipped: there the search raises the DomainError
    rng = random.Random(31)
    points = ORACLE_GRID + ACCEPTANCE_04_GRID + [
        random_plan_params(rng) for _ in range(100)]
    for _ in range(40):
        alpha, j = rng.randint(20, 120), rng.randint(0, 3)
        points.append(params(alpha=alpha, delta=rng.uniform(0.5, 1.0),
                             xi=edge_xi(alpha + j, rng.uniform(688.0, 712.0))))
    start, seen = time.perf_counter(), collections.Counter()
    for p in points:
        d, g0 = p.delta, 1.0 + p.xi
        for N in range(p.horizon_blocks, p.horizon_blocks + 11):
            K = boundary_blocks(N, p.xi)
            try:
                twins = [d ** (n / g0) * g0 ** n for n in range(K)]
            except OverflowError:  # the tau-0 fold raises first
                continue
            for tau in (1, 2, 3, rng.randint(4, 100_000)):
                g = 1.0 + fork_depth_growth(N, p.xi, tau)
                try:
                    terms = [d ** (n / g) * g ** n for n in range(K)]
                except OverflowError:
                    seen["overflow"] += 1
                    continue
                assert all(t >= t0 for t, t0 in zip(terms, twins)), (p, N, tau)
                assert _boundary_cost(d, g, g, K) >= left_fold(twins)
                seen["boundary"] += 1
    elapsed = time.perf_counter() - start
    assert seen["boundary"] >= 10_000 and seen["overflow"] >= 100, seen
    assert elapsed < 2.0, elapsed


def counting_folds(monkeypatch) -> list:
    """Wrap the search's `_boundary_cost`: each call appends its (n, K), so
    K - n terms were folded."""
    calls = []

    def fold(delta, g, base, K, n=0, total=0):
        calls.append((n, K))
        return _boundary_cost(delta, g, base, K, n, total)
    monkeypatch.setattr(economics, "_boundary_cost", fold)
    return calls


def test_skipping_search_matches_summing_search_near_overflow(monkeypatch):
    # the skip must keep every plan and raise each overflow at the same
    # (tau, N): the DomainError's repr names that boundary's base and K
    rng = random.Random(15)
    points = [(params(alpha=rng.randint(20, 120), xi=rng.uniform(2.0, 12.0),
                      delta=rng.uniform(0.5, 1.0), v=rng.uniform(0.0, 50.0)),
               10) for _ in range(150)]
    for _ in range(50):
        alpha = rng.randint(20, 120)
        points.append((params(alpha=alpha,
                              xi=edge_xi(alpha + 3, rng.uniform(695.0, 715.0)),
                              delta=rng.uniform(0.5, 1.0),
                              v=rng.uniform(0.0, 50.0)), 10))
    # at tau_max 0, points whose last N has finite tau-0 terms but a fold
    # that reaches inf (at tau 1 its last power overflows): the search must
    # return its plan without folding that N
    for _ in range(300):
        alpha = rng.randint(20, 120)
        points.append((params(alpha=alpha,
                              xi=edge_xi(alpha + 3, rng.uniform(709.5, 709.78)),
                              delta=rng.choice((1.0, rng.uniform(0.99, 1.0))),
                              v=rng.uniform(0.0, 50.0)), 0))

    folds, seen = counting_folds(monkeypatch), collections.Counter()
    for p, tau_max in points:
        grid = dict(tau_max=tau_max, n_extra=3, b_max=3)
        want = search_outcome(summing_search, p, grid)
        folds.clear()
        assert search_outcome(brute_force_optimal_plan, p, grid) == want
        seen["plan" if isinstance(want, tuple) else
             "tau 0" if f"{1.0 + p.xi!r}^n" in want else "tau >= 1"] += 1
        if isinstance(want, tuple):  # the lazy fold stopped short of an inf
            g0, far = 1.0 + p.xi, max(K for _, K in folds)
            Ks = [boundary_blocks(N, p.xi) for N in range(p.alpha, p.alpha + 4)]
            seen["inf unfolded"] += any(
                K > far and _boundary_cost(p.delta, g0, g0, K) == math.inf
                for K in Ks)
    # every outcome is exercised
    assert all(seen[k] >= 10 for k in ("plan", "tau 0", "tau >= 1",
                                       "inf unfolded")), seen


def test_shared_tau0_prefix_names_the_first_overflowing_boundary():
    # the search folds the tau-0 terms once, and its overflow probe raises
    # a tau-0 overflow before that fold runs; an overflow that first shows
    # at some N > n0 must still name that N's K, as summing each N's
    # boundary on its own does, and not the largest K
    rng = random.Random(18)
    grid = dict(tau_max=2, n_extra=6, b_max=2)
    later = 0
    for _ in range(40):
        alpha, j = rng.randint(20, 120), rng.randint(1, 5)
        p = params(alpha=alpha, delta=rng.uniform(0.5, 1.0),
                   xi=edge_xi(alpha + j, rng.uniform(710.0, 712.0)),
                   v=rng.uniform(0.0, 50.0))
        with pytest.raises(DomainError) as want:
            summing_search(p, **grid)
        with pytest.raises(DomainError) as got:
            brute_force_optimal_plan(p, **grid)
        assert repr(got.value) == repr(want.value)
        K = int(str(want.value).rsplit("n < ", 1)[1])
        Ks = [boundary_blocks(N, p.xi) for N in range(alpha, alpha + 7)]
        later += Ks[0] < K < Ks[-1]
    assert later >= 10, later


def search_outcome(search, p: AttackParams, grid: dict):
    """The plan `search` returns on `grid`, or the repr of its DomainError."""
    try:
        return search(p, **grid)
    except DomainError as e:
        return repr(e)


def first_overflow_taus(p: AttackParams, tau_max: int, n_extra: int):
    """Per N of the search, the first fork depth up to tau_max whose
    boundary's last power overflows, or None."""
    out = []
    for N in range(p.horizon_blocks, p.horizon_blocks + n_extra + 1):
        K, first = boundary_blocks(N, p.xi), None
        for tau in range(tau_max + 1):
            try:
                (1.0 + fork_depth_growth(N, p.xi, tau)) ** (K - 1)
            except OverflowError:
                first = tau
                break
        out.append(first)
    return out


def test_retiring_search_matches_summing_search_at_deep_forks():
    # the search scans tau 0 only, but near overflow it must still raise the
    # DomainError that summing every boundary, tau-major, raises first: at
    # some points that is at a tau >= 1, and at some a later N overflows at
    # a shallower fork than the first N that overflows at all
    rng = random.Random(28)
    wide = dict(tau_max=24, n_extra=3, b_max=5)
    points = [(p, wide) for p in ORACLE_GRID]
    points += [(random_plan_params(rng), wide) for _ in range(100)]
    for _ in range(40):
        alpha, j = rng.randint(20, 120), rng.randint(0, 3)
        points.append((params(alpha=alpha, delta=rng.uniform(0.5, 1.0),
                              xi=edge_xi(alpha + j, rng.uniform(688.0, 712.0)),
                              v=rng.uniform(0.0, 50.0)),
                       dict(tau_max=rng.randint(20, 30), n_extra=3, b_max=3)))
    seen = collections.Counter()
    for p, grid in points:
        want = search_outcome(summing_search, p, grid)
        assert search_outcome(brute_force_optimal_plan, p, grid) == want, p
        seen["plan" if isinstance(want, tuple) else "error"] += 1
        taus = first_overflow_taus(p, grid["tau_max"], grid["n_extra"])
        if any(taus) and 0 not in taus:  # the first overflow is at tau >= 1
            deep = [t for t in taus if t is not None]
            seen["deep overflow"] += 1
            # a later N overflows at a shallower fork than the first N does
            seen["later N first"] += min(deep) < deep[0]
    assert seen["deep overflow"] >= 10 and seen["later N first"] >= 5, seen
    assert seen["plan"] >= 100 and seen["error"] >= 10, seen


def test_acceptance_04_plans_do_not_depend_on_the_fork_depth_bound(
        monkeypatch):
    # the search scans tau 0 only and probes each N's last power once, at
    # tau_max, so its cost does not grow with tau_max: testing every fork
    # depth up to 100,000 took about 48 s for the 100 searches
    start = time.perf_counter()
    deep = [brute_force_optimal_plan(p, tau_max=100_000)
            for p in ACCEPTANCE_04_GRID]
    elapsed = time.perf_counter() - start
    folds = counting_folds(monkeypatch)
    assert deep == [brute_force_optimal_plan(p, tau_max=10)
                    for p in ACCEPTANCE_04_GRID]
    assert len(deep) == 100 and elapsed < 5.0, elapsed
    # the revenue cap skips most N on the fold so far, so the tau-0 fold
    # stops short of the largest K: it added 35.2 terms a search when it ran
    # to the largest K, 12.34 now
    terms = sum(K - n for n, K in folds) / len(deep)
    assert terms <= 13, terms


def test_a_one_block_boundary_retires_without_a_margin():
    # at N = 1 and xi = 0 the boundary is one block: its term is 1.0 at
    # every tau, equal to its tau-0 twin, so no deeper fork can win and none
    # is tested; testing it at every fork depth took 0.04 to 0.06 s a search
    points = [p for p in ORACLE_GRID if p.horizon_blocks == 1 and p.xi == 0]
    start = time.perf_counter()
    deep = [brute_force_optimal_plan(p, tau_max=100_000, n_extra=0)
            for p in points]
    elapsed = time.perf_counter() - start
    assert deep == [brute_force_optimal_plan(p, tau_max=10, n_extra=0)
                    for p in points]
    assert len(deep) == 12 and elapsed < 0.1, elapsed


def test_an_int_too_long_to_print_is_described_by_its_bits():
    # the repr of an int past 4,300 digits raises ValueError, which escaped
    # in place of the DomainError (and of AttackParams's ConfigError)
    for call in (lambda: boundary_blocks(10 ** 5000, 1.0),
                 lambda: boundary_blocks(1, 10 ** 5000),
                 lambda: adess_attack_cost(10 ** 5000, 1.0)):
        with pytest.raises(DomainError, match="an int of 16610 bits"):
            call()
    with pytest.raises(ConfigError, match="got an int of 16610 bits"):
        AttackParams(xi=10 ** 5000)


def test_overflowing_plan_revenue_or_cost_is_a_domain_error():
    # p_B (K + B) past the largest float makes the revenue inf, and times a
    # discount that underflowed to 0, nan; c near it makes the cost inf
    for kw in (dict(p_B=1e308, B=5), dict(p_B=1e308, B=5, delta=1e-200),
               dict(c=1e308)):
        with pytest.raises(DomainError, match="attack (revenue|cost) over"):
            attack_plan_profit(params(v=1.0, **kw))
    for kw in (dict(p_B=1e308), dict(p_B=1e308, delta=1e-320)):
        with pytest.raises(DomainError, match="attack revenue overflows"):
            safe_value_interval(1.0, params(**kw))
        with pytest.raises(DomainError, match="attack revenue overflows"):
            min_deterring_xi(1.0, params(**kw))
    with pytest.raises(DomainError, match="attack revenue overflows"):
        brute_force_optimal_plan(AttackParams(v=1.0, p_B=1e308, delta=1e-200,
                                              xi=1.0, alpha=3),
                                 tau_max=2, n_extra=2, b_max=3)


def test_plan_search_drops_plans_whose_cost_overflows():
    # c (N + B) overflows past the first plan, whose profit stays finite;
    # with no finite plan left, the search fails rather than pick one
    p = params(alpha=1, xi=0.0, c=1e308, v=1.0)
    grid = dict(tau_max=2, n_extra=2, b_max=3)
    assert brute_force_optimal_plan(p, **grid) == oracle_best_plan(p, **grid) \
        == (0, 1, 0)
    with pytest.raises(DomainError, match="best attack profit overflows"):
        brute_force_optimal_plan(replace(p, c=1.7e308, xi=1.0), **grid)


def test_brute_force_rejects_negative_grid_sizes():
    for grid in (dict(n_extra=-1), dict(tau_max=-1), dict(b_max=-1)):
        with pytest.raises(ValueError):
            brute_force_optimal_plan(params(), **grid)


def test_brute_force_rejects_non_int_grid_sizes():
    for grid in (dict(n_extra=1.0), dict(tau_max=10.0), dict(b_max=2.0)):
        with pytest.raises(TypeError):
            brute_force_optimal_plan(params(), **grid)


def test_plan_profits_rejects_negative_b_max():
    with pytest.raises(ValueError):
        attack_plan_profit(params(), B=-1)
    with pytest.raises(ValueError):
        attack_plan_profit(params(), tau=-1)


def test_broadcast_margin():
    assert broadcast_margin(params()) == pytest.approx(0.0)
    m = broadcast_margin(params(v=100.0, delta=0.99, alpha=6))
    assert m < 0


def test_no_secret_blocks_past_boundary():
    p = params(v=50.0, delta=0.99, alpha=4)
    profits = [attack_plan_profit(p, B=B).profit for B in range(21)]
    assert max(range(21), key=lambda b: profits[b]) == 0


def test_brute_force_plan_is_head_fork_boundary_broadcast():
    for alpha, xi, delta in ((2, 1.0, 0.999), (4, 0.5, 0.99), (3, 2.0, 0.95)):
        p = params(alpha=alpha, xi=xi, delta=delta, v=1.0)
        assert brute_force_optimal_plan(p, tau_max=4, n_extra=4, b_max=6) \
            == (0, alpha, 0)


# -- marginal analysis -------------------------------------------------------

def test_cost_term_derivative_matches_finite_difference():
    h = 1e-6
    for n, xi, delta in ((1, 0.7, 0.95), (3, 1.3, 0.99), (7, 0.4, 0.9)):
        fd = (cost_term(n, xi + h, delta) - cost_term(n, xi - h, delta)) / (2 * h)
        assert cost_term_derivative(n, xi, delta) == pytest.approx(fd, rel=1e-4)
    assert cost_term_derivative(0, 1.0, 0.9) == 0.0


def test_penalty_margin_negative_when_reward_le_cost():
    for xi in (0.3, 0.9, 1.5, 2.8):
        assert penalty_margin(xi, 5, 0.99) < 0


def test_penalty_margin_requires_open_unit_delta():
    with pytest.raises(ValueError):
        penalty_margin(1.0, 5, 1.0)


def test_affine_derivative_matches_finite_difference():
    h = 1e-6
    for n, xi, delta, rho, fn in ((2, 0.8, 0.97, 0.2, 1.5), (5, 1.1, 0.9, 0.05, 0.7)):
        fd = (affine_cost_term(n, xi + h, delta, rho, fn)
              - affine_cost_term(n, xi - h, delta, rho, fn)) / (2 * h)
        assert affine_cost_term_derivative(n, xi, delta, rho, fn) \
            == pytest.approx(fd, rel=1e-4)


def test_affine_margin_negative():
    assert affine_growth_cost_margin(1.0, 0.1, lambda n: 1.0, 5, 0.99) < 0
    assert affine_growth_cost_margin(
        0.7, 0.2, lambda n: 1.0 + 0.1 * n, 4, 0.97) < 0


# -- deterrence solvers ------------------------------------------------------

def test_min_deterring_xi_threshold_example():
    p = params(alpha=1, sigma=1, delta=0.999999)
    xi_star = min_deterring_xi(11.0, p)
    assert xi_star == pytest.approx(1.0, abs=1e-4)


def test_min_deterring_xi_v_zero_returns_grid_minimum():
    p = params(delta=0.999)
    assert min_deterring_xi(0.0, p) == pytest.approx(1e-3)


def test_min_deterring_xi_monotone_tail():
    p = params(alpha=3, delta=0.999)
    xi_star = min_deterring_xi(25.0, p)
    profits = [adess_attack_profit(replace(p, v=25.0, xi=xi_star + k * 0.1)).profit
               for k in range(1, 21)]
    assert all(pr < 0 for pr in profits)


def naive_min_deterring_xi(v: float, p: AttackParams) -> float:
    """`min_deterring_xi` as first written: every probe builds its own
    AttackParams and evaluates the default plan through
    `attack_plan_profit`."""

    def profit(xi):
        return attack_plan_profit(replace(p, v=v, xi=xi)).profit

    lo, hi = 1e-3, 1.0
    if profit(lo) < 0:
        xi_star = lo
    else:
        it = 0
        while profit(hi) >= 0:
            hi *= 2.0
            it += 1
            if it > 60:
                raise SolverFailure("no deterring penalty found",
                                    bracket=(lo, hi))
        it = 0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if profit(mid) < 0:
                hi = mid
            else:
                lo = mid
            it += 1
            if it > 200:
                raise SolverFailure("bisection did not converge",
                                    bracket=(lo, hi))
        xi_star = hi
    for i in range(1, 21):
        probe = xi_star * (1.0 + 0.5 * i)
        if profit(probe) >= 0:
            raise SolverFailure(f"profit non-negative again at xi = {probe}",
                                bracket=(xi_star, probe))
    return xi_star


def solver_outcome(solver, v, p):
    """The returned penalty, or the failure's message and bracket."""
    try:
        return solver(v, p)
    except SolverFailure as e:
        return ("SolverFailure", str(e), e.bracket)
    except DomainError as e:
        return ("DomainError", str(e))


SOLVER_GRID = [
    (v, params(alpha=alpha, sigma=sigma, delta=delta, B=B, p_B=p_B, c=c))
    for v in (0.0, 0.3, 11.0, 1e4)
    for alpha, sigma in ((1, 0), (3, 1))
    for delta in (0.5, 0.99, 0.999999, 1.0)
    for B in (0, 3)
    for p_B, c in ((1.0, 1.0), (2.5, 0.8))] + SOLVER_FAILURES + [
    # the doubling search overflows the attack cost before deterring
    (1e300, params()), (1e308, params(alpha=5, B=2))]


def test_min_deterring_xi_matches_naive_solver():
    failures = 0
    for v, p in SOLVER_GRID:
        got = solver_outcome(min_deterring_xi, v, p)
        want = solver_outcome(naive_min_deterring_xi, v, p)
        assert got == want and repr(got) == repr(want), (v, p)
        failures += isinstance(want, tuple)
    assert failures >= len(SOLVER_FAILURES)


def test_safe_value_interval():
    assert safe_value_interval(1.0, params()) == pytest.approx(11.0)
    assert safe_value_interval(1e-9, params()) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        safe_value_interval(0.0, params())


def test_safe_value_interval_nondecreasing_in_xi():
    p = params(alpha=3, delta=0.999)
    vals = [safe_value_interval(xi / 10.0, p) for xi in range(1, 31)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_profit_negative_below_v_max():
    for xi in (0.25, 0.5, 1.0, 2.0):
        p = params(xi=xi, alpha=3)
        v_max = safe_value_interval(xi, p)
        for i in range(100):
            v = v_max * i / 100.0
            assert adess_attack_profit(replace(p, v=v)).profit < 0


# -- difficulty-regime cost mapping ------------------------------------------

def test_partial_cost_equals_full_with_scaled_penalty_per_term():
    # partial adjustment softens the hashrate base from (1+xi) to (1+beta*xi)
    for beta in (0.25, 0.5, 1.0):
        got = partial_adjustment_attack_cost(3, 1.2, beta)
        base = 1.0 + beta * 1.2
        want = sum(base ** n for n in range(boundary_blocks(3, 1.2)))
        assert got == pytest.approx(want, rel=1e-12)


# -- protocol comparison -----------------------------------------------------

def test_malicious_cost_series_shapes():
    p = params(alpha=3, delta=0.99)
    adess, _ = malicious_cost_series("adess", p, horizon=20)
    nak, _ = malicious_cost_series("nakamoto", p, horizon=20)
    assert all(x == 0.0 for x in adess[3:])
    assert all(x > 0 for x in adess[:3])
    assert nak == [1.0] * 20


def test_malicious_cost_no_apriori_ranking():
    # long horizon, mild discounting: the perpetual matcher pays more
    cheap_split = params(alpha=2, xi=0.5, delta=0.999)
    _, pv_a = malicious_cost_series("adess", cheap_split, horizon=2000)
    _, pv_n = malicious_cost_series("nakamoto", cheap_split, horizon=2000)
    assert pv_a < pv_n
    # steep penalty, heavy discounting, short patience: the surge costs more
    dear_split = params(alpha=6, xi=2.0, delta=0.7)
    _, pv_a2 = malicious_cost_series("adess", dear_split, horizon=2000)
    _, pv_n2 = malicious_cost_series("nakamoto", dear_split, horizon=2000)
    assert pv_a2 > pv_n2


def test_overflowing_split_cost_is_a_domain_error():
    # c (1 + xi)^t past the largest float is inf, and times a discount
    # that underflowed to 0, nan; the matcher's present value sums past it
    for protocol, kw in (("adess", {}), ("adess", dict(delta=1e-320)),
                         ("nakamoto", {})):
        p = params(c=1e308, alpha=6, **kw)
        with pytest.raises(DomainError, match="split cost overflows"):
            malicious_cost_series(protocol, p, horizon=20)
    # (1 + xi)^t itself past the largest float: the power raised
    with pytest.raises(DomainError, match=r"split cost overflows: 1001\.0\^t"):
        malicious_cost_series("adess", AttackParams(xi=1e3, alpha=200), 300)


def test_expected_hashrate_examples():
    assert expected_attack_hashrate(Fraction(1), 3, "none") == 6
    assert expected_attack_hashrate(Fraction(1), 3, "full") == 14  # 2+4+8


def test_proposition1_simple_grid():
    grid = [(Fraction(1), Fraction(1, 100), 3, "none"),
            (Fraction(1), Fraction(1, 100), 3, "full"),
            (Fraction(1, 10), Fraction(9, 100), 1, "none")]
    results = proposition1_check(grid)
    assert all(r.adess_weakly_greater for r in results)
    with pytest.raises(ValueError):
        proposition1_check([(Fraction(1, 100), Fraction(1), 2, "none")])


# -- properties --------------------------------------------------------------

@given(st.floats(min_value=0.01, max_value=3.0),
       st.floats(min_value=0.5, max_value=1.0),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=120, deadline=None)
def test_profit_identity_property(xi, delta, alpha, v):
    br = adess_attack_profit(params(xi=xi, delta=delta, alpha=alpha, v=v))
    assert br.profit == pytest.approx(
        br.discounted_revenue - br.discounted_cost, rel=1e-12, abs=1e-12)
    assert br.discounted_cost > 0


@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=2.0),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=120, deadline=None)
def test_guo_ren_strictly_decreasing_property(k, rho, lam, d):
    try:
        a = guo_ren_bound(k, rho, lam, d, variant="abs")
        b = guo_ren_bound(k + 1, rho, lam, d, variant="abs")
    except DomainError:
        return  # p >= 1 after the latency inflation: out of the abs domain
    assert b < a


def test_solver_failure_carries_bracket():
    exc = SolverFailure("no sign change", bracket=(1e-3, 2.5))
    assert exc.bracket == (1e-3, 2.5)
    assert isinstance(exc, Exception)
    assert SolverFailure("plain").bracket is None
