"""Mining engine tests: block times, difficulty rules, hashrate series."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adess.errors import DomainError
from adess.mining import (CertaintyEquivalent, DifficultyRule, NEVER_FOUND,
                          Stochastic, adjust_difficulty, geometric_time,
                          next_block_time, required_hashrate_series,
                          sustained_growth_cost)

CE = CertaintyEquivalent()


def test_ce_block_time():
    assert next_block_time(1.0, 1.0, CE) == 1.0
    assert next_block_time(4.0, 2.0, CE) == 2.0


def test_zero_hashrate_stalls():
    assert next_block_time(1.0, 0.0, CE) == NEVER_FOUND
    assert math.isinf(NEVER_FOUND)


def test_bad_inputs():
    with pytest.raises(ValueError):
        next_block_time(0.0, 1.0, CE)
    with pytest.raises(ValueError):
        next_block_time(1.0, -1.0, CE)
    with pytest.raises(ValueError):
        next_block_time(1.0, 1.0, Stochastic())  # no RNG supplied
    with pytest.raises(TypeError, match="unknown mining mode"):
        next_block_time(1.0, 1.0, object())
    with pytest.raises(ValueError, match="tick must be > 0"):
        Stochastic(tick=0.0)
    with pytest.raises(ValueError, match="inputs must be > 0"):
        adjust_difficulty(0.0, 1.0, DifficultyRule.full())
    with pytest.raises(ValueError, match="growth must be > -1"):
        required_hashrate_series(-1.0, 3, DifficultyRule.full())
    with pytest.raises(ValueError, match="n_blocks must be >= 1"):
        required_hashrate_series(1.0, 0, DifficultyRule.full())
    with pytest.raises(DomainError, match="overflows a float within 1000"):
        required_hashrate_series(1e3, 1000, DifficultyRule.full())
    # NaN and inf pass no check: each returned nan, 0.0 or a non-ValueError
    nan, inf, full = math.nan, math.inf, DifficultyRule.full()
    for mode, rng in ((CE, None), (Stochastic(), random.Random(1))):
        for difficulty, hashrate, what in ((nan, 1.0, "difficulty"),
                                           (inf, 1.0, "difficulty"),
                                           (1.0, nan, "hashrate"),
                                           (1.0, inf, "hashrate")):
            with pytest.raises(ValueError, match=f"{what} must be"):
                next_block_time(difficulty, hashrate, mode, rng)
    for args in ((1.0, nan, full), (nan, 1.0, full), (inf, 1.0, full),
                 (1.0, inf, full),
                 (1.0, 1.0, DifficultyRule.epoch(2), [1.0, nan]),
                 (1.0, 1.0, DifficultyRule.epoch(2), [inf, 1.0]),
                 (1.0, 1.0, DifficultyRule.epoch(2), [0.0, 1.0])):
        with pytest.raises(ValueError, match="inputs must be > 0"):
            adjust_difficulty(*args)
    for growth in (nan, inf):
        with pytest.raises(ValueError, match="growth must be > -1"):
            required_hashrate_series(growth, 3, full)
        with pytest.raises(ValueError, match="growth must be > -1"):
            sustained_growth_cost(growth, 3, full)


def test_stochastic_mean_within_two_percent():
    mode = Stochastic(tick=0.01)
    rng = random.Random(12345)
    n = 100_000
    total = sum(next_block_time(1.0, 1.0, mode, rng) for _ in range(n))
    assert abs(total / n - 1.0) < 0.02


def test_stochastic_seeded_replay_is_bit_exact():
    mode = Stochastic(tick=0.01)
    a = [next_block_time(2.0, 1.5, mode, random.Random(7)) for _ in range(50)]
    b = [next_block_time(2.0, 1.5, mode, random.Random(7)) for _ in range(50)]
    # same seed, one fresh generator per draw: identical streams either way
    rng1, rng2 = random.Random(99), random.Random(99)
    c = [next_block_time(2.0, 1.5, mode, rng1) for _ in range(50)]
    d = [next_block_time(2.0, 1.5, mode, rng2) for _ in range(50)]
    assert a == b and c == d


def test_geometric_time_counts_ticks_and_rejects_underflowed_p():
    assert geometric_time(1.0, 0.0, 0.25) == 0.25  # a known time
    assert geometric_time(0.5, 0.7, 0.1) == 0.2  # ln 0.3 / ln 0.5 = 1.74
    assert geometric_time(0.5, 0.0, 0.1) == 0.1  # at least one tick
    assert geometric_time(1e-320, 0.0, 0.1) == 0.1
    # p subnormal: the trial count is inf; p == 0.0: ln(1 - p) is 0
    for p in (1e-309, 1e-320, 5e-324, 0.0):
        with pytest.raises(DomainError, match=f"p = {p!r}"):
            geometric_time(p, 0.5, 0.01)


def _resolved(draw: tuple) -> str:
    try:
        return repr(geometric_time(*draw))
    except (DomainError, ValueError) as e:  # NaN: ValueError from ceil
        return f"{type(e).__name__}: {e}"


def _reference_draw(difficulty, hashrate, mode, rng) -> tuple:
    """The draw rule as one function per call, checks and all."""
    if difficulty <= 0:
        raise ValueError("difficulty must be > 0")
    if isinstance(mode, CertaintyEquivalent):
        return 1.0, 0.0, difficulty / hashrate
    p = min(hashrate * mode.tick / difficulty, 1.0)
    return p, rng.random() if p < 1.0 else 0.0, mode.tick


def test_run_bound_drawer_matches_the_reference_rule():
    """A simulation draws through `mode._drawer(rng)`, bound once per run.
    At hashrate > 0 it and the reference rule give the same tuple (repr, so
    NaN compares) and take the same uniforms."""
    seeded = random.Random(2024)
    points = [(10 ** seeded.uniform(-3, 3), 10 ** seeded.uniform(-3, 3),
               10 ** seeded.uniform(-4, 0)) for _ in range(500)]
    nan, inf = math.nan, math.inf
    points += [
        (1.0, 200.0, 0.01), (1.0, 100.0, 0.01),  # p >= 1: no uniform
        (1e300, 1e-10, 0.01), (1.0, 1e-320, 0.01),  # p underflows
        (nan, 1.0, 0.01), (1.0, nan, 0.01), (inf, 1.0, 0.01),
        (1.0, inf, 0.01), (inf, inf, 0.01), (1e-320, 1.0, 0.01),
    ]
    underflows = 0
    for difficulty, hashrate, tick in points:
        for mode in (Stochastic(tick=tick), CE):
            rngs = [random.Random(5) for _ in range(2)]
            draws = [_reference_draw(difficulty, hashrate, mode, rngs[0]),
                     mode._drawer(rngs[1])(difficulty, hashrate)]
            assert len({repr(d) for d in draws}) == 1
            assert len({repr(r.getstate()) for r in rngs}) == 1
            assert len({_resolved(d) for d in draws}) == 1
            underflows += _resolved(draws[0]).startswith("DomainError")
    assert underflows >= 3
    for difficulty in (0.0, -1.0):  # the drawer keeps the ValueError
        for mode in (Stochastic(), CE):
            with pytest.raises(ValueError, match="difficulty"):
                mode._drawer(random.Random(5))(difficulty, 1.0)


def test_full_adjustment():
    rule = DifficultyRule.full()
    assert adjust_difficulty(1.0, 1.5, rule) == 1.5


def test_partial_adjustment():
    rule = DifficultyRule.partial(0.4)
    assert adjust_difficulty(1.0, 1.5, rule) == pytest.approx(1.2)


def test_epoch_mid_epoch_unchanged():
    rule = DifficultyRule.epoch(2016)
    assert adjust_difficulty(3.0, 99.0, rule, epoch_history=[1.0] * 10) == 3.0


def test_epoch_retarget():
    rule = DifficultyRule.epoch(4)
    # four blocks took 2 time units instead of 4: difficulty doubles
    assert adjust_difficulty(1.0, 1.0, rule,
                             epoch_history=[0.5] * 4) == pytest.approx(2.0)


def test_rule_validation():
    with pytest.raises(ValueError):
        DifficultyRule.partial(0.0)
    with pytest.raises(ValueError):
        DifficultyRule("bogus")
    with pytest.raises(ValueError):
        DifficultyRule("partial", beta=True)
    with pytest.raises(ValueError):
        DifficultyRule.epoch(0)


def test_epoch_length_must_be_an_int():
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="epoch_length must be an int"):
            DifficultyRule.epoch(bad)
    assert DifficultyRule.epoch(3).epoch_length == 3


def test_non_finite_mining_params_rejected():
    for bad in (math.nan, math.inf, True):
        with pytest.raises(ValueError):
            Stochastic(tick=bad)


def test_hashrate_series_full():
    assert required_hashrate_series(1.0, 3, DifficultyRule.full()) == [2, 4, 8]


def test_hashrate_series_zero_growth():
    series = required_hashrate_series(0.0, 5, DifficultyRule.full())
    assert series == [1.0] * 5


def test_hashrate_series_epoch_linear():
    series = required_hashrate_series(1.0, 3, DifficultyRule.epoch(100))
    assert series == [2, 2, 2]


def test_hashrate_series_partial():
    series = required_hashrate_series(1.0, 3, DifficultyRule.partial(0.5))
    assert series == pytest.approx([2.0, 3.0, 4.5])


def test_full_equals_partial_one():
    g = 0.7
    full = required_hashrate_series(g, 8, DifficultyRule.full())
    partial = required_hashrate_series(g, 8, DifficultyRule.partial(1.0))
    assert full == pytest.approx(partial, rel=1e-12)


def test_ce_consistency_difficulty_converges_in_one_step():
    rule = DifficultyRule.full()
    h, d = 3.0, 1.0
    times = []
    for _ in range(5):
        times.append(next_block_time(d, h, CE))
        d = adjust_difficulty(d, h, rule)
    # first block is fast, every block after retarget is exactly on target
    assert times[0] == pytest.approx(1.0 / 3.0)
    assert times[1:] == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_sustained_growth_cost_matches_series():
    # per-block dollar cost is hashrate x duration 1/(1+g)
    g = 1.0
    cost = sustained_growth_cost(g, 4, DifficultyRule.full(), delta=1.0)
    assert cost == pytest.approx((2 + 4 + 8 + 16) / 2.0)


@given(st.floats(min_value=0.05, max_value=3.0),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=80, deadline=None)
def test_series_positive_and_monotone_under_full(growth, n):
    series = required_hashrate_series(growth, n, DifficultyRule.full())
    assert all(h > 0 for h in series)
    assert all(b > a for a, b in zip(series, series[1:])) or n == 1


@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
@settings(max_examples=30, deadline=None)
def test_any_64_bit_seed_is_usable(seed):
    mode = Stochastic(tick=0.01)
    t = next_block_time(1.0, 1.0, mode, random.Random(seed))
    assert t > 0
