"""Closed-form attack profitability and the deterrence solvers.

Conventions: all monetary quantities are in abstract dollars at exchange
rate 1; block pace and honest hashrate are normalized to 1.  The penalty
parameter is `xi`; the marginal surplus hashrate the classic attacker adds
at its final block is stored separately as `epsilon_extra` (the two share a
glyph in the source analysis but are unrelated quantities).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import DomainError, SolverFailure, brief, check_numbers
from .forkchoice import _BOUNDARY_EPS

#: penalty step `penalty_margin` takes to see whether the ceiling increments
_MARGIN_DXI = 1e-6

#: `min_deterring_xi`'s bisection floor, width and step cap, and tail probes
_XI_LO = 1e-3
_XI_TOL = 1e-6
_XI_MAX_ITER = 200
_TAIL_SAMPLES = 20

#: largest tau, N, B and ceil(N(1+xi)) of an attack plan (else DomainError)
_MAX_PLAN_BLOCKS = 100_000


def left_sum(terms: Iterable[float]) -> float:
    """Add left to right from 0, as float `sum()` did until Python 3.12 made
    it compensated, so outputs keep the same bits on every version."""
    return reduce(add, terms, 0)


def boundary_blocks(n_ic: float, xi: float) -> int:
    """ceil(N*(1+xi) - _BOUNDARY_EPS): the penalized-chain blocks a view needs
    at the canonical boundary; DomainError above _MAX_PLAN_BLOCKS, inf, nan."""
    try:
        k = n_ic * (1.0 + xi) - _BOUNDARY_EPS
    except OverflowError:  # an int N past the float range
        k = math.inf
    if not k <= _MAX_PLAN_BLOCKS:
        raise DomainError(f"ceil(N(1+xi)) must be at most {_MAX_PLAN_BLOCKS}"
                          f" blocks, got N = {brief(n_ic)}, xi = {brief(xi)}")
    return math.ceil(k)


@dataclass(frozen=True)
class AttackParams:
    """Economic parameter vector for one attack evaluation."""

    v: float = 0.0            # transaction value
    p_B: float = 1.0          # block reward
    c: float = 1.0            # cost of one hashrate unit per unit time
    delta: float = 1.0        # time discount per unit time, in (0, 1]
    xi: float = 1.0           # penalty parameter, >= 0
    alpha: int = 6            # confirmation depth, >= 1
    sigma: int = 0            # blocks between fork and tx inclusion
    epsilon_extra: float = 0.01  # classic attacker's marginal surplus hashrate
    B: int = 0                # extra secret blocks past the boundary

    def __post_init__(self):
        check_numbers(self)
        if self.v < 0 or self.p_B <= 0 or self.c <= 0:
            raise ValueError("v >= 0 and p_B, c > 0 required")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if (self.xi < 0 or self.alpha < 1 or self.sigma < 0 or self.B < 0
                or self.epsilon_extra < 0):
            raise ValueError("xi >= 0, alpha >= 1, sigma >= 0, B >= 0 and "
                             "epsilon_extra >= 0 required")

    @property
    def horizon_blocks(self) -> int:
        """N: incumbent-chain post-fork blocks at the canonical boundary."""
        return self.alpha + self.sigma


@dataclass(frozen=True)
class ProfitBreakdown:
    discounted_revenue: float
    discounted_cost: float
    blocks_on_attacker_chain: int

    @property
    def profit(self) -> float:
        return self.discounted_revenue - self.discounted_cost


# ---------------------------------------------------------------------------
# Classic (pre-penalty) protocol economics
# ---------------------------------------------------------------------------

def nakamoto_attack_profit(p: AttackParams) -> ProfitBreakdown:
    """Ex-ante expected profit of the classic double-spend strategy: match the
    incumbent pace for N-1 blocks, then add surplus hashrate at block N."""
    N, d, c = p.horizon_blocks, p.delta, p.c
    revenue = d ** (N - 1) * (p.v + p.p_B * N)
    cost = c * (left_sum(d ** (n - 1) for n in range(1, N))
                + (1.0 + p.epsilon_extra) * d ** (N - 1))
    return ProfitBreakdown(_finite(revenue, "attack revenue"),
                           _finite(cost, "attack cost"), N)


def nakamoto_zero_profit_v(p: AttackParams) -> float:
    """Transaction value at which the classic attack breaks even."""
    N, d, c = p.horizon_blocks, p.delta, p.c
    bracket = left_sum(d ** (n - 1) for n in range(1, N)) \
        + (1.0 + p.epsilon_extra) * d ** (N - 1)
    try:
        v = d ** (-(N - 1)) * c * bracket - p.p_B * N
    except OverflowError:  # 1/delta^(N-1) past the largest float
        v = math.inf
    return _finite(v, "break-even value")


def nakamoto_min_profitable_v(p: AttackParams) -> float:
    """delta -> 1 limit of the break-even value: (c - p_B)*N + c*eps."""
    return (p.c - p.p_B) * p.horizon_blocks + p.c * p.epsilon_extra


def moroz_round_payoff(v: float, p_B: float, c: float, N: int,
                       gamma: float) -> float:
    """War-of-attrition round payoff for the player entering round N+1 when
    its opponent exits: v + p_B(N+1) - c(1+gamma)^(N+1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    try:
        payoff = v + p_B * (N + 1) - c * (1.0 + gamma) ** (N + 1)
    except OverflowError:
        payoff = -math.inf
    return _finite(payoff, "round payoff")


def guo_ren_bound(k: int, rho: float, lambda_rate: float, delta_prop: float,
                  variant: str = "abs") -> float:
    """Upper bound on the probability a confirmed receipt is later reversed,
    as a function of confirmation blocks k, honest fraction rho, mining rate
    lambda and propagation delay bound.

    `variant="literal"` evaluates the expression exactly as printed in its
    source, which is undefined for p <= 1; `variant="abs"` substitutes
    |p - 1| under the square root and restricts p to (0, 1), documented as a
    deviation because the printed formula is unusable on its stated domain.
    """
    if not (k >= 1 and 0.0 < rho <= 1.0 and 0 < lambda_rate < math.inf
            and 0 <= delta_prop < math.inf):
        raise ValueError("k >= 1, rho in (0, 1], finite lambda_rate > 0 and "
                         "delta_prop >= 0 required")
    if variant not in ("literal", "abs"):
        raise ValueError(f"unknown variant {variant!r}")
    try:
        p = rho * math.exp(lambda_rate * delta_prop)
        if variant == "literal" and p <= 1.0:
            raise DomainError(f"literal variant undefined for p = {p!r} <= 1 "
                              "(square root of a non-positive quantity)")
        if variant == "abs" and not 0.0 < p < 1.0:
            raise DomainError(f"abs-corrected variant requires p in (0, 1), "
                              f"got p = {p!r}")
        root = math.sqrt(1.0 / abs(p - 1.0))  # p - 1 > 0 when literal
        return (2.0 + 2.0 * root) * 4.0 * p * (1.0 - p) ** k
    except OverflowError:
        raise DomainError("the settlement bound overflows a float") from None


# ---------------------------------------------------------------------------
# Penalized-protocol attack economics
# ---------------------------------------------------------------------------

def fork_depth_growth(N: int, xi: float, tau: int) -> float:
    """Growth rate needed to reach the boundary at incumbent block N when the
    fork starts tau blocks behind the head: gamma = xi + tau/N."""
    if N < 1 or tau < 0:
        raise ValueError("N >= 1 and tau >= 0 required")
    return xi + tau / N


def _boundary_cost(delta: float, g: float, base: float, K: int, n: int = 0,
                   total: float = 0) -> float:
    """Sum of delta^(n/g) base^n over the K blocks up to the boundary, a left
    fold from int 0, or continued from `total`, its value at n blocks."""
    try:  # left_sum's fold, inlined: this is the plan search's inner loop
        for n in range(n, K):
            total += delta ** (n / g) * base ** n
        return total
    except OverflowError:
        raise DomainError(f"attack cost overflows: {base!r}^n, n < {K}") from None


def _check_cost(N: int, xi: float, delta: float, c: float):
    """The attack cost's domain, as `AttackParams` holds it (nan fails)."""
    if not (N >= 1 and xi >= 0 and c > 0 and 0.0 < delta <= 1.0):
        raise ValueError("N >= 1, xi >= 0, c > 0 and delta in (0, 1] required")


def _check_margin(N: int, delta: float, name: str, x: float):
    """A penalty margin's domain: `name` = x > 0 as well (nan fails)."""
    if not (N >= 1 and x > 0 and 0.0 < delta < 1.0):
        raise ValueError(f"N >= 1, {name} > 0 and delta in (0, 1) required")


def adess_attack_cost(N: int, xi: float, delta: float = 1.0,
                      c: float = 1.0) -> float:
    """Discounted cost of growing the attack chain at rate (1+xi) until the
    canonical boundary at incumbent block N."""
    return partial_adjustment_attack_cost(N, xi, 1.0, delta, c)


def partial_adjustment_attack_cost(N: int, xi: float, beta: float,
                                   delta: float = 1.0, c: float = 1.0) -> float:
    """Attack cost when difficulty only partially adjusts: the hashrate base
    softens from (1+xi) to (1+beta*xi) while the block count and pace are
    still set by the penalty xi."""
    _check_cost(N, xi, delta, c)
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    return c * _boundary_cost(delta, 1.0 + xi, 1.0 + beta * xi,
                              boundary_blocks(N, xi))


def _plan_blocks(xi: float, N: int, tau: int, b_max: int) -> int:
    """K = ceil(N(1+xi)) once the plan's sizes pass their checks."""
    if N < 1 or tau < 0 or b_max < 0:
        raise ValueError("N >= 1, tau >= 0, B >= 0 required")
    if max(tau, N, b_max) > _MAX_PLAN_BLOCKS:
        raise DomainError(f"attack plan too large: tau, N and B must be at "
                          f"most {_MAX_PLAN_BLOCKS}")
    return boundary_blocks(N, xi)


def _first_overflow(xi: float, tau: int, Ns: range, Ks: List[int]):
    """(g, K) of the first N whose g^(K-1) overflows at fork depth tau."""
    for N, K in zip(Ns, Ks):
        g = 1.0 + (xi + tau / N)  # 1 + fork_depth_growth(N, xi, tau)
        try:
            g ** (K - 1)
        except OverflowError:
            return g, K
    return None


def _finite(x: float, what: str) -> float:
    """`x`, or DomainError if it overflowed to inf (or nan: inf times 0)."""
    if not math.isfinite(x):
        raise DomainError(f"{what} overflows a float: {x!r}")
    return x


def attack_plan_profit(p: AttackParams, tau: int = 0,
                       N: Optional[int] = None, B: Optional[int] = None) -> ProfitBreakdown:
    """Profit of the plan that forks tau blocks back, reaches the boundary at
    incumbent block N (default alpha + sigma), then mines B (default p.B)
    more secret blocks, each cost a left fold; at most tau 0's (README)."""
    N = p.horizon_blocks if N is None else N
    B = p.B if B is None else B
    K = _plan_blocks(p.xi, N, tau, B)
    d = p.delta
    g = 1.0 + fork_depth_growth(N, p.xi, tau)
    revenue = d ** (N + B - 1) * (p.v + p.p_B * (K + B))
    cost = p.c * (_boundary_cost(d, g, g, K)
                  + left_sum(d ** (N + b) for b in range(B)))
    return ProfitBreakdown(_finite(revenue, "attack revenue"),
                           _finite(cost, "attack cost"), K + B)


def adess_attack_profit(p: AttackParams) -> ProfitBreakdown:
    """Profit of the cost-minimal plan: head fork, boundary at N = alpha +
    sigma incumbent blocks, immediate broadcast."""
    return attack_plan_profit(p, tau=0)


def broadcast_margin(p: AttackParams) -> float:
    """Marginal profit from secretly mining one block past the boundary;
    non-positive whenever p_B <= c."""
    N, d = p.horizon_blocks, p.delta
    K = boundary_blocks(N, p.xi)
    return _finite((d ** N - d ** (N - 1)) * (p.v + p.p_B * (K + 1))
                   + d ** N * (p.p_B - p.c), "broadcast margin")


# ---------------------------------------------------------------------------
# Marginal effect of the penalty parameter
# ---------------------------------------------------------------------------

def cost_term(n: int, xi: float, delta: float) -> float:
    """n-th term of the discounted attack cost: delta^(n/(1+xi)) (1+xi)^n,
    the affine term at rho 0 and f(n) 1."""
    return affine_cost_term(n, xi, delta, 0.0, 1.0)


def cost_term_derivative(n: int, xi: float, delta: float) -> float:
    """d/dxi of cost_term: n (1+xi)^(n-2) delta^(n/(1+xi)) [(1+xi) - ln delta].

    Positive for n >= 1 and delta in (0, 1); the n = 0 term is constant.
    """
    if n == 0:
        return 0.0
    g = 1.0 + xi
    return n * g ** (n - 2) * delta ** (n / g) * (g - math.log(delta))


def penalty_margin(xi: float, N: int, delta: float, c: float = 1.0,
                   p_B: float = 1.0) -> float:
    """Marginal effect of raising the penalty on attacker profit.  The block
    reward and extra-block terms enter only when the increase bumps the
    boundary block count (the ceiling increments under _MARGIN_DXI)."""
    _check_margin(N, delta, "xi", xi)
    try:
        K = boundary_blocks(N, xi)
        margin = -c * left_sum(cost_term_derivative(n, xi, delta)
                               for n in range(K))
        if boundary_blocks(N, xi + _MARGIN_DXI) > K:
            margin += delta ** N * p_B - delta ** N * c
    except OverflowError:  # (1+xi)^n past the largest float
        margin = -math.inf
    return _finite(margin, "penalty margin")


def affine_cost_term(n: int, xi: float, delta: float, rho_aff: float,
                     f_n: float) -> float:
    """Cost term when the growth schedule is affine in the penalty:
    gamma(n) = rho + xi*f(n)."""
    g = 1.0 + rho_aff + xi * f_n
    return delta ** (n / g) * g ** n


def affine_cost_term_derivative(n: int, xi: float, delta: float,
                                rho_aff: float, f_n: float) -> float:
    """d/dxi of affine_cost_term: n f(n) delta^(n/g) g^(n-2) [g - ln delta]
    with g = 1 + rho + xi f(n).  Positive for n >= 1, delta in (0, 1)."""
    if n == 0:
        return 0.0
    g = 1.0 + rho_aff + xi * f_n
    return n * f_n * delta ** (n / g) * g ** (n - 2) * (g - math.log(delta))


def affine_growth_cost_margin(xi: float, rho_aff: float,
                              f: Callable[[int], float], N: int, delta: float,
                              c: float = 1.0, p_B: float = 1.0) -> float:
    """Penalty margin under the affine growth schedule (the README's marginal
    analysis); negative whenever p_B <= c, so deterrence survives
    non-constant growth."""
    _check_margin(N, delta, "rho_aff", rho_aff)
    try:
        deriv_sum = left_sum(
            affine_cost_term_derivative(n, xi, delta, rho_aff, f(n))
            for n in range(boundary_blocks(N, xi)))
    except OverflowError:  # g^n past the largest float
        deriv_sum = math.inf
    return _finite(p_B - c * deriv_sum - c, "penalty margin")


# ---------------------------------------------------------------------------
# Deterrence solvers
# ---------------------------------------------------------------------------

def min_deterring_xi(v: float, params: AttackParams) -> float:
    """Smallest penalty (on a bisection grid from _XI_LO, to within _XI_TOL)
    rendering the attack unprofitable at transaction value v, verified to
    stay unprofitable at _TAIL_SAMPLES larger penalties."""
    params = replace(params, v=v)
    d, c, N, B = params.delta, params.c, params.horizon_blocks, params.B
    _plan_blocks(_XI_LO, N, 0, B)  # sizes checked before the powers
    w = d ** (N + B - 1)  # xi-free, taken once
    secret = left_sum(d ** (N + b) for b in range(B))

    def profit(xi: float) -> float:  # adess_attack_profit at (v, xi)
        K, g = boundary_blocks(N, xi), 1.0 + xi  # sizes checked above
        revenue = w * (v + params.p_B * (K + B))
        return _finite(revenue, "attack revenue") - c * (
            _boundary_cost(d, g, g, K) + secret)

    if profit(_XI_LO) < 0:
        xi_star = _XI_LO
    else:
        lo, hi = _XI_LO, max(2 * _XI_LO, 1.0)
        for _ in range(61):
            if profit(hi) < 0:
                break
            hi *= 2.0
        else:
            raise SolverFailure("no deterring penalty found",
                                bracket=(_XI_LO, hi))
        for _ in range(_XI_MAX_ITER + 1):
            if hi - lo <= _XI_TOL:
                break
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if profit(mid) < 0 else (mid, hi)
        else:
            raise SolverFailure("bisection did not converge",
                                bracket=(lo, hi))
        xi_star = hi
    for i in range(1, _TAIL_SAMPLES + 1):
        probe = xi_star * (1.0 + 0.5 * i)
        if profit(probe) >= 0:
            raise SolverFailure(
                f"profit non-negative again at xi = {probe}",
                bracket=(xi_star, probe))
    return xi_star


def safe_value_interval(xi: float, params: AttackParams) -> float:
    """Largest v_max such that the attack is unprofitable for every
    transaction value in [0, v_max): v_max = -profit(xi, v=0)."""
    if xi <= 0:
        raise ValueError("xi must be > 0")
    return -adess_attack_profit(replace(params, v=0.0, xi=xi)).profit


# ---------------------------------------------------------------------------
# Protocol cost comparison and the hashrate dominance check
# ---------------------------------------------------------------------------

def malicious_cost_series(protocol: str, params: AttackParams,
                          horizon: int) -> Tuple[List[float], float]:
    """Per-block cost series of maintaining a permanent consensus split, and
    its present value.  The penalized-protocol attacker pays exponentially up
    to the boundary and nothing after; the classic attacker pays a constant
    matching cost forever."""
    N = params.horizon_blocks
    if horizon < N:
        raise ValueError("horizon must cover the boundary")
    c, d, xi = params.c, params.delta, params.xi
    if protocol == "adess":
        try:
            series = [c * (1.0 + xi) ** t if t <= N else 0.0
                      for t in range(1, horizon + 1)]
        except OverflowError:
            raise DomainError(f"split cost overflows: {1.0 + xi!r}^t, "
                              f"t <= {N}") from None
    elif protocol == "nakamoto":
        series = [c] * horizon
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    pv = left_sum(d ** t * s for t, s in zip(range(1, horizon + 1), series))
    return series, _finite(pv, "split cost")  # inf entries make it inf/nan


@dataclass(frozen=True)
class HashrateComparison:
    xi: Fraction
    epsilon_extra: Fraction
    N: int
    adjustment: str
    adess_hashrate: Fraction
    nakamoto_hashrate: Fraction

    @property
    def adess_weakly_greater(self) -> bool:
        return self.adess_hashrate >= self.nakamoto_hashrate


def expected_attack_hashrate(xi: Fraction, N: int, adjustment: str) -> Fraction:
    """Total expected hashrate to make the attack chain canonical at
    incumbent block N: N(1+xi) with no difficulty adjustment, the compounding
    sum under full per-block adjustment."""
    xi = Fraction(xi)
    if adjustment == "none":
        return N * (1 + xi)
    if adjustment == "full":
        return sum((1 + xi) ** n for n in range(1, N + 1))
    raise ValueError(f"unknown adjustment {adjustment!r}")


def proposition1_check(grid: Iterable[Tuple[Fraction, Fraction, int, str]]
                       ) -> List[HashrateComparison]:
    """Exact-arithmetic comparison of attack hashrate across the grid of
    (xi, epsilon_extra, N, adjustment) points; requires xi > epsilon_extra."""
    out = []
    for xi, eps, N, adjustment in grid:
        xi, eps = Fraction(xi), Fraction(eps)
        if xi <= eps:
            raise ValueError("the comparison requires xi > epsilon_extra")
        adess = expected_attack_hashrate(xi, N, adjustment)
        nakamoto = Fraction(N) + eps
        out.append(HashrateComparison(xi, eps, N, adjustment, adess, nakamoto))
    return out


def brute_force_optimal_plan(p: AttackParams, tau_max: int = 10,
                             n_extra: int = 10, b_max: int = 20
                             ) -> Tuple[int, int, int]:
    """First most profitable plan over (tau, N, B), in that order, by
    exhaustive search, bit-identical to `attack_plan_profit`.  It scans only
    head forks: each tau >= 1 boundary costs at least its tau-0 twin, so no
    deeper plan is a new strict maximum (README).  It skips the B scan of an
    N whose revenue cap less its boundary cost cannot beat the best.  The
    tau-0 boundaries are one left fold from int 0, extended to N's K only if
    the fold so far does not already skip N: the terms left are >= 0 and each
    rounded step of the cap test is monotone, so the fold so far bounds N's
    cost from below and a skip it takes is one the full fold takes.  It raises
    the DomainError of the first (tau, N) whose last power overflows, as
    summing every boundary would.  An inf revenue or best is an error."""
    if n_extra < 0:
        raise ValueError("n_extra >= 0 required")
    n0, d, c, xi, v, p_B = p.horizon_blocks, p.delta, p.c, p.xi, p.v, p.p_B
    _plan_blocks(xi, n0 + n_extra, tau_max, b_max)  # monotone in N
    powers = [d ** e for e in range(n0 - 1, n0 + n_extra + b_max)]
    Ns, g0 = range(n0, n0 + n_extra + 1), 1.0 + xi
    Ks = [math.ceil(N * g0 - _BOUNDARY_EPS) for N in Ns]  # boundary_blocks'
    _finite(v + p_B * (Ks[-1] + b_max), "attack revenue")  # w <= 1: bounds all
    taus = range(tau_max + 1)  # as in range, a float tau_max is a TypeError
    # a probed power can overflow only past this log bound (README)
    if ((Ks[-1] - 1) * math.log2(1.0 + xi + tau_max / n0) > 1000
            and _first_overflow(xi, tau_max, Ns, Ks)):
        tau = bisect_left(taus, True, key=lambda t: bool(
            _first_overflow(xi, t, Ns, Ks)))  # g rises with tau: bisect
        g, K = _first_overflow(xi, tau, Ns, Ks)
        _boundary_cost(d, g, g, K)  # raises that (tau, N)'s DomainError
    tops, top = [], 0.0  # then reversed: tops[i] = max(powers[i:])
    for w in reversed(powers):
        tops.append(top := w if w > top else top)
    tops.reverse()
    best, best_plan, n, boundary = -math.inf, None, 0, 0
    for i, (N, K) in enumerate(zip(Ns, Ks)):
        cap = tops[i] * (v + p_B * (K + b_max))
        if cap - c * boundary <= best:  # the fold so far: at most N's cost
            continue
        boundary, n = _boundary_cost(d, g0, g0, K, n, boundary), K
        if cap - c * boundary <= best:
            continue  # the revenue cap: no B can beat the best plan
        secret = 0  # the B-term fold at N, read from the power table
        for B, w in enumerate(powers[i:i + b_max + 1]):
            if B:
                secret += w
            profit = w * (v + p_B * (K + B)) - c * (boundary + secret)
            if profit > best:
                best, best_plan = profit, (0, N, B)
    _finite(best, "best attack profit")  # -inf: every cost overflowed
    return best_plan
