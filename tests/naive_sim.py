"""A deliberately plain reference twin of the simulator's event loop.

`NaiveSimulation` replays a `ScenarioConfig` without any of `_Simulation`'s
shortcuts:

- one heap event per (receiver, block) arrival, pushed in link order;
- a private `NodeView` over the simulator's tree for every receiver,
  att_obs included, fed every arrival;
- a full regroup of every head, in sorted order, wherever a group can
  change: after a block is mined and after a miner's head moves;
- mine events pushed as soon as they are drawn, and skipped as stale when
  popped.

It shares no view and keeps no runs or draw buffer; att_obs is a receiver
at delay 0, first in every honest sender's links, where the simulator gives
it an event of its own.  Set-up, difficulty tracking, the attacker and the
report are `_Simulation`'s own, so only the plumbing is re-implemented, and
`run_naive(cfg)` must give `run_scenario`'s report byte for byte.
`random_config(rng)` draws the small configurations both are compared on.
Stdlib only, so `python tests/test_golden.py` can use it without pytest.
"""

from __future__ import annotations

import heapq
import random
from typing import List

from adess.economics import AttackParams
from adess.forkchoice import AdessParams, NodeView
from adess.mining import (NEVER_FOUND, CertaintyEquivalent, DifficultyRule,
                          Stochastic, next_block_time)
from adess.netsim import (ATTACKER, STRATEGIES, RunReport, ScenarioConfig,
                          _Simulation, run_scenario)


class NaiveSimulation(_Simulation):
    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)  # tree, RNGs, difficulty and attacker state
        names = ["att_obs", *cfg.node_names()]
        self.views = {name: NodeView(cfg.adess, self.tree) for name in names}
        self.nodes = {name: self.views[name] for name in cfg.node_names()}
        self.rates = {n: r for n, r in cfg.hashrates().items() if r > 0}
        nodes = sorted(cfg.node_names())
        # sender -> (delay, receiver) in push order
        self.links = {m: [(0.0, "att_obs")] + [
            (cfg.link_delay(m, n), n) for n in nodes
            if n == m or n not in cfg.eclipse_from_honest] for m in self.rates}
        self.links[ATTACKER] = [
            (cfg.link_delay(ATTACKER, n), n) for n in nodes
            if n not in cfg.eclipse_set] + [(0.0, "att_obs")]
        # head -> (hashrate, seq of its mine event, None if never found)
        self.groups: dict = {}

    def run(self) -> RunReport:
        self.regroup()
        while self._heap:
            time, _, handler, payload = heapq.heappop(self._heap)
            if time > self.cfg.horizon:
                break
            self.time = time
            handler(*payload)
        return self._report()

    def _fan_out(self, sender: str, blocks):
        for delay, name in self.links[sender]:
            for bid in blocks:
                self._push(self.time + delay, self.arrive, (name, bid))

    def regroup(self):
        """Draw a block time for every head whose members' summed hashrate
        (in name order) differs from its group's, in head order."""
        rates: dict = {}
        for name in sorted(self.rates):
            head = self._canonical[name]
            rates[head] = rates.get(head, 0.0) + self.rates[name]
        for head in sorted(set(rates) | set(self.groups)):
            hashrate = rates.get(head)
            if self.groups.get(head, (None,))[0] == hashrate:
                continue
            if hashrate is None:
                del self.groups[head]
                continue
            difficulty = self._retargets[head][0]
            dur = next_block_time(difficulty, hashrate, self.cfg.mining,
                                  self.rng_honest)
            self.groups[head] = (hashrate, None)
            if dur != NEVER_FOUND:
                seq = self._seq + 1  # the seq _push gives this event
                self._push(self.time + dur, self.mine,
                           (seq, head, hashrate, difficulty, dur))
                self.groups[head] = (hashrate, seq)

    def mine(self, seq: int, head: int, hashrate: float, difficulty: float,
             duration: float):
        if self.groups.get(head, (None, None))[1] != seq:
            return  # superseded by a later draw
        del self.groups[head]
        miner = min(n for n in self.rates if self._canonical[n] == head)
        bid = self._add_block(head, difficulty, miner, hashrate, duration)
        self._fan_out(miner, [bid])
        self.regroup()

    def arrive(self, name: str, bid: int):
        view = self.views[name]
        view.observe(bid, self.time)
        head = (view.adess_canonical() if self.cfg.protocol == "adess"
                else view.nakamoto_canonical())
        old, self._canonical[name] = self._canonical[name], head
        if name == "att_obs":
            self._maybe_start_attack()
            self._check_broadcast_condition()
            return
        if head != old:
            self.series.append(
                (self.time, name, head, self.tree.block(head).height))
            if name in self.rates:
                self.regroup()
        if name == "n0":
            self._check_conveyance(bid)
            self._check_broadcast_condition()


def run_naive(cfg: ScenarioConfig) -> RunReport:
    return NaiveSimulation(cfg).run()


#: link delays; 0.1 + 0.2 != 0.3, but t + (0.1 + 0.2) == t + 0.3 for most t
DELAYS = (0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.5, 1.0)


def random_config(rng: random.Random) -> ScenarioConfig:
    """A small valid configuration: 1-6 nodes, some mining, per-link delays
    and eclipses; either protocol, any strategy, difficulty rule and mining
    mode."""
    n = rng.randint(1, 6)
    names = [f"n{i}" for i in range(n)]
    rates = None
    if rng.random() < 0.7:
        rates = {m: rng.choice((0.0, 0.2, 0.5, 1.0)) for m in names}
        rates[rng.choice(names)] = rng.choice((0.3, 1.0))
    delays = None
    if rng.random() < 0.5:
        delays = {(rng.choice(names + [ATTACKER]), rng.choice(names)):
                  rng.choice(DELAYS) for _ in range(rng.randint(1, 6))}
    alpha, xi = rng.randint(1, 3), rng.choice((0.5, 1.0, 2.0))
    strategy = rng.choice(STRATEGIES)
    return ScenarioConfig(
        protocol=rng.choice(("adess", "nakamoto")),
        adess=AdessParams(alpha=alpha, xi=xi),
        attack=AttackParams(alpha=alpha, xi=xi, v=11.0,
                            epsilon_extra=rng.choice((0.0, 0.05))),
        mining=rng.choice((CertaintyEquivalent(), Stochastic(tick=0.01))),
        difficulty=rng.choice((DifficultyRule.full(),
                               DifficultyRule.partial(0.5),
                               DifficultyRule.epoch(3))),
        n_honest_nodes=n, honest_hashrates=rates, delay=rng.choice(DELAYS),
        delays=delays, attacker_strategy=strategy,
        growth=rng.choice((0.5, 1.5)) if strategy == "fixed_growth" else None,
        eclipse_set=tuple(m for m in names if rng.random() < 0.15),
        eclipse_from_honest=tuple(m for m in names if rng.random() < 0.15),
        attack_start_height=rng.randint(1, 3),
        horizon=rng.choice((10.0, 20.0, 30.0)),
        seed=rng.getrandbits(32))


def _outputs(run, cfg: ScenarioConfig) -> str:
    try:
        rep = run(cfg)
    except Exception as e:  # both must fail alike
        return f"{type(e).__name__}: {e}"
    return rep.to_text() + "\x00" + rep.series_csv()


def mismatches(seeds) -> List[int]:
    """Seeds of the `random_config`s whose naive and fast outputs differ."""
    bad: List[int] = []
    for seed in seeds:
        cfg = random_config(random.Random(seed))
        if _outputs(run_naive, cfg) != _outputs(run_scenario, cfg):
            bad.append(seed)
    return bad

