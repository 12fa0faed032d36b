"""Block production and difficulty adjustment.

Block discovery is a Bernoulli guessing process: with difficulty D and
hashrate h the expected waiting time is D/h.  Stochastic mode samples the
geometric waiting time over discrete ticks; certainty-equivalent mode
replaces the draw with its expectation.  The RNG is Python's Mersenne
Twister (`random.Random`), seeded from a 64-bit integer, so identical seeds
replay bit-exactly on any platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .economics import left_sum
from .errors import DomainError, check_numbers

#: Sentinel returned when hashrate is zero: the chain is stalled.
NEVER_FOUND = math.inf


@dataclass(frozen=True)
class CertaintyEquivalent:
    """Deterministic block times: exactly D/h."""

    def _drawer(self, rng: Optional[random.Random] = None):
        """This mode's draw rule at hashrate > 0: see `next_block_time`."""
        def draw(difficulty: float, hashrate: float) -> tuple:
            if difficulty <= 0:
                raise ValueError("difficulty must be > 0")
            return 1.0, 0.0, difficulty / hashrate
        return draw


@dataclass(frozen=True)
class Stochastic:
    """Geometric waiting time over ticks of fixed length; the RNG that draws
    it is passed to `next_block_time`."""

    tick: float = 0.01

    def __post_init__(self):
        check_numbers(self)
        if self.tick <= 0:
            raise ValueError("tick must be > 0")

    def _drawer(self, rng: Optional[random.Random]):
        """This mode's draw rule at hashrate > 0, bound to `rng`."""
        if rng is None:
            raise ValueError("stochastic mode needs an RNG")
        tick, uniform = self.tick, rng.random
        def draw(difficulty: float, hashrate: float) -> tuple:
            if difficulty <= 0:
                raise ValueError("difficulty must be > 0")
            p = min(hashrate * tick / difficulty, 1.0)
            return p, uniform() if p < 1.0 else 0.0, tick
        return draw


MiningMode = Union[CertaintyEquivalent, Stochastic]


@dataclass(frozen=True)
class DifficultyRule:
    """Retargeting to unit block time: full, partial-beta or per-epoch."""

    mode: str  # "full" | "partial" | "epoch"
    beta: float = 1.0
    epoch_length: int = 1

    def __post_init__(self):
        check_numbers(self)
        if self.mode not in ("full", "partial", "epoch"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.epoch_length < 1:
            raise ValueError("epoch length must be >= 1")
        for name, mode in (("beta", "partial"), ("epoch_length", "epoch")):
            if getattr(self, name) != 1 and self.mode != mode:
                raise ValueError(f"{name} is read only by the {mode} mode")

    def _retarget(self):
        """`adjust_difficulty`'s formula under this rule, for inputs > 0:
        (prev difficulty, implied hashrate, epoch history) -> next."""
        beta, E = self.beta, self.epoch_length
        return {"full": lambda prev, implied, history=(): implied,
                "partial": lambda prev, implied, history=(): prev * (
                    1.0 + beta * (implied / prev - 1.0)),
                "epoch": lambda prev, implied, history=(): prev if len(
                    history) < E else prev * (E / left_sum(history)),
                }[self.mode]

    @classmethod
    def full(cls) -> "DifficultyRule":
        return cls("full")

    @classmethod
    def partial(cls, beta: float) -> "DifficultyRule":
        return cls("partial", beta=beta)

    @classmethod
    def epoch(cls, length: int) -> "DifficultyRule":
        return cls("epoch", epoch_length=length)


def next_block_time(difficulty: float, hashrate: float, mode: MiningMode,
                    rng: Optional[random.Random] = None) -> float:
    """Waiting time for the next block, or NEVER_FOUND at zero hashrate: the
    `geometric_time` of the draw (p, u, tick) of `mode._drawer(rng)`, a rule
    that a simulation binds once and whose draw it may drop unresolved."""
    if difficulty <= 0:
        raise ValueError("difficulty must be > 0")
    if hashrate < 0:
        raise ValueError("hashrate must be >= 0")
    if hashrate == 0:
        return NEVER_FOUND
    if not isinstance(mode, (CertaintyEquivalent, Stochastic)):
        raise TypeError(f"unknown mining mode {mode!r}")
    return geometric_time(*mode._drawer(rng)(difficulty, hashrate))


def geometric_time(p: float, u: float, tick: float) -> float:
    """Inverse-CDF geometric trial count to a success at p, times tick."""
    if p >= 1.0:
        return tick
    try:
        ticks = math.ceil(math.log1p(-u) / math.log1p(-p))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"block-time draw underflows at p = {p!r}") from None
    return max(ticks, 1) * tick


def adjust_difficulty(prev_difficulty: float, implied_hashrate: float,
                      rule: DifficultyRule,
                      epoch_history: Optional[Sequence[float]] = None) -> float:
    """Next-block difficulty given the hashrate implied by the last block.

    Full: retarget to implied hashrate.  Partial(beta): move a fraction beta
    of the way there.  Epoch(E): unchanged mid-epoch; `epoch_history` is the
    list of observed block times in the closing epoch and triggers a retarget
    when it holds E entries.
    """
    if prev_difficulty <= 0 or implied_hashrate <= 0:
        raise ValueError("inputs must be > 0")
    return rule._retarget()(prev_difficulty, implied_hashrate,
                            epoch_history or ())


def required_hashrate_series(growth: float, n_blocks: int,
                             rule: DifficultyRule) -> List[float]:
    """Per-block hashrate needed to sustain inter-block time 1/(1+growth),
    starting from unit difficulty and unit target pace."""
    if growth <= -1:
        raise ValueError("growth must be > -1")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    g = 1.0 + growth
    try:
        if rule.mode == "full":
            return [g ** k for k in range(1, n_blocks + 1)]
        if rule.mode == "partial":
            base = 1.0 + rule.beta * growth
            return [g * base ** (k - 1) for k in range(1, n_blocks + 1)]
        # epoch: difficulty steps up by the realized growth factor each
        # retarget
        E = rule.epoch_length
        return [g ** ((k - 1) // E + 1) for k in range(1, n_blocks + 1)]
    except OverflowError:
        raise DomainError(f"the hashrate {g!r}^k overflows a float within "
                          f"{n_blocks} blocks") from None


def sustained_growth_cost(growth: float, n_blocks: int, rule: DifficultyRule,
                          delta: float = 1.0, unit_cost: float = 1.0) -> float:
    """Discounted dollar cost of sustaining the growth rate: each block costs
    hashrate times its duration 1/(1+growth), discounted from the block's
    start time."""
    g = 1.0 + growth
    series = required_hashrate_series(growth, n_blocks, rule)
    total = 0.0
    for k, h in enumerate(series):
        total += unit_cost * (h / g) * delta ** (k / g)
    return total
