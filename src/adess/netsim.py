"""Discrete-event simulation of honest miners, one attacker and observers.

The event loop is strictly sequential: events are processed in (time,
sequence-number) order, so identical configurations (including the seed)
replay bit-identically; a block sent over a stretch of a sender's links at
one delay is one arrive event.  Honest hashrate is grouped by the canonical
head each mining node follows; a group mines jointly.  A miner's head change
regroups only its old and new heads, each folding its rates in name order
(`_fold`: one table read when all miners share a rate); the group that mined
redraws at its own rate.  A mine event waits out its instant unless it may
fall due in it, so a regroup then (a miner hearing its own block) drops it
unresolved.  The attacker mines a secret chain and broadcasts it according
to its strategy.

A view's state is a function of its (time, block) arrival sequence alone.
A maximal run of nodes next in name order that hear every sender at equal
delays is a class: its members sit next to each other in every sender's
links, so each fan-out reaches it in one run of one arrive event, and it
shares one `NodeView` over the simulator's tree; set-up is linear in nodes,
and wires a sender as it first sends.  The run observes each block once and
finds its head changes once for all members; the members take them in one
loop, node-major: a series row each and, for a miner, a regroup each.  The
attacker's observer `att_obs` is in no link: a view of its own, it hears
each honest block by an event of its own at the block's instant, only while
its head is read: until the attack starts, and under budish until the
broadcast.

`validate` bounds the blocks a horizon allows at the unit pace every
retarget aims for by `_MAX_BLOCKS`; a run that mines faster fails with
`DomainError` once it passes the bound, or once blocks x nodes, which bounds
the series rows, passes `_MAX_SERIES_ROWS`; so no configuration hangs.
"""

from __future__ import annotations

import bisect
import heapq
import io
import math
import random
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import BlockId, BlockTree
from .economics import AttackParams, boundary_blocks
from .errors import ConfigError, DomainError, check_numbers, number
from .forkchoice import AdessParams, NodeView
from .mining import (CertaintyEquivalent, DifficultyRule, MiningMode,
                     NEVER_FOUND, Stochastic, geometric_time)

ATTACKER = "attacker"

STRATEGIES = ("paper_optimal", "fixed_growth", "accelerated", "budish")

_MAX_BLOCKS = 100_000  # blocks a run may mine, see module doc
_MAX_SERIES_ROWS = 1_000_000  # blocks x honest nodes (series rows) per run
_MAX_NODES = 1_000  # honest nodes a run may hold


def accelerated_rate(xi: float, N: int, delay: float) -> float:
    """Growth factor that closes the latency window at the boundary:
    1 + {xi + (delay/N)(1+xi)}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return 1.0 + xi + (delay / N) * (1.0 + xi)


def _table(rates: Dict[str, float]) -> Optional[List[float]]:
    """When every miner in `rates` mines at one rate r, the fold from 0.0 of
    k copies of r at k, for `_fold`; else None."""
    rate, *others = set(rates.values())
    return None if others else list(
        accumulate([rate] * len(rates), initial=0.0))


def _fold(members: List[str], rates: Dict[str, float],
          table: Optional[List[float]]) -> float:
    """A group's hashrate: the left fold from 0.0 of its `members`' rates in
    name order, read from `table` (see `_table`) when there is one."""
    if table is not None:
        return table[len(members)]
    hashrate = 0.0
    for name in members:
        hashrate += rates[name]
    return hashrate


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: str = "adess"                      # "adess" | "nakamoto"
    adess: AdessParams = field(default_factory=AdessParams)
    attack: AttackParams = field(default_factory=AttackParams)
    mining: MiningMode = field(default_factory=CertaintyEquivalent)
    difficulty: DifficultyRule = field(default_factory=DifficultyRule.full)
    n_honest_nodes: int = 1
    honest_hashrates: Optional[Dict[str, float]] = None  # node -> hashrate
    delay: float = 0.0                           # uniform per-link delay
    delays: Optional[Dict[Tuple[str, str], float]] = None  # (sender, node)
    attacker_strategy: str = "paper_optimal"
    growth: Optional[float] = None               # for fixed_growth
    eclipse_set: Tuple[str, ...] = ()            # hidden from attacker bcasts
    eclipse_from_honest: Tuple[str, ...] = ()    # hidden from others' bcasts
    attack_start_height: int = 2
    horizon: float = 40.0
    seed: int = 0

    def node_names(self) -> List[str]:
        return [f"n{i}" for i in range(self.n_honest_nodes)]

    def hashrates(self) -> Dict[str, float]:
        if self.honest_hashrates is not None:
            return dict(self.honest_hashrates)
        rates = {name: 0.0 for name in self.node_names()}
        rates["n0"] = 1.0
        return rates

    def link_delay(self, sender: str, node: str) -> float:
        if self.delays is not None and (sender, node) in self.delays:
            return self.delays[(sender, node)]
        if sender == node:
            return 0.0
        return self.delay

    def validate(self) -> Tuple[Dict[str, float], tuple]:
        """Raise ConfigError unless a run can start; return what the check
        derived, (the mining nodes' `hashrates()` in name order,
        `attacker_plan()`), for the run to use."""
        check_numbers(self)
        nodes = self.n_honest_nodes  # before anything builds a dict of them
        if not 1 <= nodes <= _MAX_NODES:
            raise ConfigError(f"need 1 to {_MAX_NODES} honest nodes: {nodes!r}")
        for what in ("honest_hashrates", "delays"):
            for x in (getattr(self, what) or {}).values():
                number(f"{what} values", x)
        if self.protocol not in ("adess", "nakamoto"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.attacker_strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.attacker_strategy!r}")
        if (self.growth is None) == (self.attacker_strategy == "fixed_growth"):
            raise ConfigError("fixed_growth requires a growth rate, and no "
                              "other strategy reads one")
        if self.growth is not None and self.growth <= -1:
            raise ConfigError("growth must be > -1")
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        rates = self.hashrates()
        if not (all(h >= 0 for h in rates.values()) and any(rates.values())):
            raise ConfigError("honest hashrates must be >= 0, some > 0")
        miners = {n: rates[n] for n in sorted(rates) if rates[n] > 0}
        total = _fold(list(miners), miners, None)  # the genesis group's rate
        if total == math.inf:
            raise ConfigError("honest hashrates must have a finite sum")
        if isinstance(self.mining, Stochastic):  # the genesis group's first
            # draw at the largest uniform
            tick = self.mining.tick
            p = min(total * tick, 1.0)
            try:
                geometric_time(p, math.nextafter(1.0, 0.0), tick)
            except DomainError as e:
                raise ConfigError(f"stochastic mining: the first {e}") from None
        # one block per unit of time per mining node, and one for the attacker
        if self.horizon * (len(miners) + 1) > _MAX_BLOCKS:
            raise ConfigError(f"horizon x (mining nodes + 1) must be at most "
                              f"{_MAX_BLOCKS} blocks")
        names = set(self.node_names())
        for what in ("honest_hashrates", "eclipse_set", "eclipse_from_honest",
                     "delays"):
            named = set(getattr(self, what) or ())
            if what == "delays":  # (sender, receiver), the attacker sends too
                named = {n for _, n in named} | {s for s, _ in named
                                                 if s != ATTACKER}
            unknown = named - names
            if unknown:
                raise ConfigError(f"{what} name unknown nodes: {sorted(unknown)}")
        if min((self.delay, *(self.delays or {}).values())) < 0:
            raise ConfigError("delay and delays entries must be >= 0")
        if self.attack_start_height < 1:
            raise ConfigError("attack_start_height must be >= 1")
        if self.protocol == "adess" and self.adess.alpha != self.attack.alpha:
            raise ConfigError(
                "protocol and attack confirmation depths must agree")
        if self.protocol == "adess" and self.adess.xi != self.attack.xi:
            raise ConfigError(
                "protocol and attack penalty parameters xi must agree")
        if self.attack.B:  # read by the plan economics, never by a run
            raise ConfigError("attack.B must be 0: runs mine no extra blocks")
        try:  # the attacker's last difficulty per unit at the fork (budish:
            # its hashrate); at honest scale, > 0 and x _MAX_BLOCKS finite
            rate, target = plan = self.attacker_plan()
            peak = rate ** target if target else 1 + self.attack.epsilon_extra
        except OverflowError:
            peak = math.inf
        except DomainError as e:  # a block target past the plan bound
            raise ConfigError(f"attack: {e}") from None
        if not (0 < min(1.0, total) * peak
                and max(1.0, total) * peak * _MAX_BLOCKS < math.inf):
            raise ConfigError("the attacker's difficulty overflows or "
                              "underflows a float before its chain reaches "
                              "its block target")
        return miners, plan

    def attacker_plan(self) -> Tuple[Optional[float], Optional[int]]:
        """(rate, target): the attacker's hashrate per unit of difficulty, so
        its hashrate grows by `rate` per block, until its chain holds `target`
        blocks.  budish has neither: it mines at unit hashrate, plus
        epsilon_extra from its N-th block, until it outweighs the incumbent."""
        xi, N = self.attack.xi, self.attack.horizon_blocks
        if self.attacker_strategy == "paper_optimal":
            return 1.0 + xi, boundary_blocks(N, xi)
        if self.attacker_strategy == "fixed_growth":
            return 1.0 + self.growth, boundary_blocks(N, xi)
        if self.attacker_strategy == "accelerated":
            # enough blocks that even the last node to hear the broadcast
            # still observes the boundary crossed
            return (accelerated_rate(xi, N, self.delay),
                    boundary_blocks(N + self.delay, xi))
        return None, None


@dataclass
class RunReport:
    protocol: str
    seed: int
    horizon: float
    attack_succeeded: bool
    split_persists: bool
    fork_block: Optional[BlockId]
    conveyed_time: Optional[float]
    broadcast_time: Optional[float]
    boundary_crossing_time: Optional[float]
    attacker_blocks: int
    realized_cost: float
    realized_revenue: float
    per_node_head: Dict[str, BlockId]
    per_node_height: Dict[str, int]
    series: List[Tuple[float, str, BlockId, int]]
    snapshot: str

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("[run]\n")
        for key in ("protocol", "seed", "horizon", "attack_succeeded",
                    "split_persists", "fork_block", "conveyed_time",
                    "broadcast_time", "boundary_crossing_time",
                    "attacker_blocks", "realized_cost", "realized_revenue"):
            out.write(f"{key} = {getattr(self, key)!r}\n")
        out.write("[heads]\n")
        for node in sorted(self.per_node_head):
            out.write(f"{node} = {self.per_node_head[node]} "
                      f"height={self.per_node_height[node]}\n")
        out.write("[tree]\n")
        out.write(self.snapshot)
        return out.getvalue()

    def series_csv(self) -> str:
        lines = ["time,node,head,height"]
        for t, node, head, height in self.series:
            lines.append(f"{t!r},{node},{head},{height}")
        return "\n".join(lines) + "\n"


@dataclass
class ProbeReport:
    """Late-joining node diagnosis: penalty state under each rule."""

    join_time: float
    undecidable_forks: List[BlockId]
    inferred_head: BlockId
    nakamoto_head: BlockId
    reference_head: BlockId


class _Simulation:
    def __init__(self, cfg: ScenarioConfig):
        # node -> hashrate of every mining node, in name order
        self._miners, (self._rate, self._target) = cfg.validate()
        self._table = _table(self._miners)  # see `_fold`
        self.cfg = cfg
        self.tree = BlockTree()
        self.time = 0.0
        self._seq = 0
        self._heap: List[tuple] = []
        self.rng_honest = random.Random(cfg.seed)
        self.rng_attacker = random.Random(cfg.seed ^ 0x5DEECE66D)

        # node -> the run (see `_run`) of its class: the nodes next to it in
        # name order keyed alike by how their links differ from hearing every
        # sender at `delay`.  A node hidden from the others' broadcasts hears
        # only its own, so a lone miner hears every miner, hidden or not.
        nodes, miners, delay = sorted(cfg.node_names()), self._miners, cfg.delay
        self._eclipsed = eclipsed = set(cfg.eclipse_set)
        self._hidden = hidden = set(cfg.eclipse_from_honest).difference(
            miners if len(miners) == 1 else ())
        # node -> the (miner, delay) links it hears unlike at `delay` (all of
        # them if hidden), from the miners' own links and the `delays` entries
        odd: Dict[str, set] = {}
        for (m, n), d in {**{(m, m): cfg.link_delay(m, m) for m in miners},
                          **(cfg.delays or {})}.items():
            if m in miners and (n == m or n not in hidden) and (
                    d != delay or n in hidden):
                odd.setdefault(n, set()).add((m, d))
        self._classes = []  # (first member, run) per class, in name order
        for _, names in groupby(nodes, lambda n: (
                n in hidden, frozenset(odd.get(n, ())), None if n in eclipsed
                else cfg.link_delay(ATTACKER, n))):
            names = tuple(names)
            self._classes.append((names[0], self._run(names)))
        self.nodes = {name: run[0] for _, run in self._classes
                      for name, _, _ in run[1]}
        # sender -> [(delay, runs)], built as it first sends: see `_wire`
        self._runs: Dict[str, list] = {}
        # tracks the honest chain for the attacker: see `_on_att_obs`
        self.att_obs = NodeView(cfg.adess, self.tree)
        self._node_canonical = (NodeView.adess_canonical if cfg.protocol
                                == "adess" else NodeView.nakamoto_canonical)

        # the run's fixed rules, bound once: see `_push`
        self._max_blocks = min(_MAX_BLOCKS, _MAX_SERIES_ROWS // len(nodes))
        self._draw = cfg.mining._drawer(self.rng_honest)
        self._adraw = cfg.mining._drawer(self.rng_attacker)
        self._retarget = cfg.difficulty._retarget()
        # block -> (next difficulty, the epoch so far it carries, or None)
        self._retargets: Dict[BlockId, tuple] = {
            self.tree.genesis_id: (1.0, None)}

        self._canonical: Dict[str, BlockId] = {
            name: self.tree.genesis_id for name in ("att_obs", *nodes)}
        # head -> [miners in name order, hashrate, seq of its last draw or
        # None] per group, one record each: see `_regroup` and `_on_mine`
        self._groups: Dict[BlockId, list] = {
            self.tree.genesis_id: [list(self._miners), 0.0, None]}
        # seq -> (head, difficulty, p, u, tick) drawn this instant
        self._instant: Dict[int, tuple] = {}
        self.series: List[Tuple[float, str, BlockId, int]] = []

        # attacker state, past its plan (`_rate`, `_target`): waiting while
        # fork_block is None, done once broadcast_time is set
        self.fork_block: Optional[BlockId] = None
        self.fork_time: Optional[float] = None
        self.attacker_chain: List[BlockId] = []
        self.realized_cost = 0.0
        self.conveyed_time: Optional[float] = None
        self.broadcast_time: Optional[float] = None
        self._obs_read = True  # whether att_obs is fed: see the module doc

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, handler, payload: tuple):
        """Queue `handler(*payload)`, a method looked up now, so a patched
        one runs.  With the run's fixed rules (draw, retarget) bound in
        `__init__`, no event dispatches on a kind or mode."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, payload))

    def _flush(self):  # push the mine events drawn at this instant
        for seq, (head, difficulty, p, u, tick) in self._instant.items():
            dur = geometric_time(p, u, tick)
            heapq.heappush(self._heap, (self.time + dur, seq, self._on_mine,
                                        (head, seq, difficulty, dur)))
        self._instant.clear()

    def _run(self, names: Tuple[str, ...]) -> tuple:
        """(view, members) of the class `names`, a new view its members
        share: a member is (name, miner, victim).  Every member holds one
        head, so `_on_arrive` finds the run's head changes once for all."""
        return NodeView(self.cfg.adess, self.tree), tuple(
            (n, n in self._miners, n == "n0") for n in names)

    def _wire(self, sender: str) -> list:
        """Store the sender's [(delay, runs)] per stretch of its links at one
        delay in push order, a class's links next to each other: one run."""
        cfg, hidden, eclipsed = self.cfg, self._hidden, self._eclipsed
        links = [(cfg.link_delay(sender, n), run) for n, run in self._classes
                 if (n not in eclipsed if sender == ATTACKER
                     else n == sender or n not in hidden)]
        self._runs[sender] = stretches = [
            (delay, tuple(run for _, run in stretch))
            for delay, stretch in groupby(links, itemgetter(0))]
        return stretches

    def _fan_out(self, sender: str, blocks: Sequence[BlockId]):
        """Send `blocks` over the sender's links: one arrive event per
        stretch of links at one delay, pushed in link order with consecutive
        seqs, so as if each (node, block) pair had its own event."""
        for delay, runs in self._runs.get(sender) or self._wire(sender):
            self._push(self.time + delay, self._on_arrive, (runs, blocks))

    def run(self) -> RunReport:
        self._regroup((self.tree.genesis_id,))
        heap, instant, horizon = self._heap, self._instant, self.cfg.horizon
        while heap or instant:
            if instant and (not heap or heap[0][0] > self.time):
                self._flush()  # the instant is over
            time, _, handler, payload = heapq.heappop(heap)
            if time > horizon:
                break
            self.time = time
            handler(*payload)
        heap.clear()  # its bound handlers would keep the run alive in a cycle
        return self._report()

    # -- difficulty tracking -----------------------------------------------

    def _add_block(self, parent: BlockId, difficulty: float, miner: str,
                   hashrate: float, duration: float) -> BlockId:
        """Append a block mined now and register its successor difficulty."""
        if len(self.tree.blocks) > self._max_blocks:
            raise DomainError(f"the run mined more than {self._max_blocks} "
                              f"blocks before its horizon: at most "
                              f"{_MAX_BLOCKS}, and {_MAX_SERIES_ROWS} / nodes")
        bid = self.tree.append_block(parent, difficulty, miner, self.time)
        # applied hashrate stands in for the implied hashrate so that the
        # deterministic retarget recurrences are reproduced exactly
        count, total = self._retargets[parent][1] or (0, 0)
        self._retargets[bid] = self._retarget(
            difficulty, hashrate, count + 1, total + duration)
        return bid

    # -- honest mining -----------------------------------------------------

    def _schedule(self, head: BlockId, group: list):
        """The one draw step: the group at `head` draws its next event."""
        difficulty = self._retargets[head][0]
        p, u, tick = self._draw(difficulty, group[1])
        seq = group[2] = self._seq = self._seq + 1
        if tick != NEVER_FOUND:  # else the group never finds a block
            self._instant[seq] = (head, difficulty, p, u, tick)
            if self.time + tick == self.time:
                self._flush()  # it may fall due at this instant

    def _regroup(self, dirty: Sequence[BlockId]):
        """Reschedule the groups at the `dirty` heads in head order, folding
        each record's rates with `_fold`, O(1) when every miner mines at one
        rate, and dropping an empty one.  A group whose hashrate is
        unchanged keeps its pending event, so a slow group's progress is never
        reset; superseded draws stay in the RNG stream."""
        groups, instant = self._groups, self._instant
        for head in dirty:
            group = groups[head]
            # every rate is > 0, so 0.0 means no members
            hashrate = _fold(group[0], self._miners, self._table)
            if group[1] == hashrate:
                continue  # pending event still valid
            instant.pop(group[2], None)
            if hashrate:
                group[1] = hashrate
                self._schedule(head, group)
            else:
                del groups[head]

    def _on_mine(self, head: BlockId, seq: int, difficulty: float,
                 duration: float):
        """The group at `head` mines unless a regroup redrew or dropped it."""
        group = self._groups.get(head)
        if group is None or group[2] != seq:
            return  # stale schedule, superseded by a regroup
        miner = group[0][0]  # the group's leader
        bid = self._add_block(head, difficulty, miner, group[1], duration)
        if self._obs_read:  # att_obs hears it first, with no delay
            self._push(self.time, self._on_att_obs, (bid,))
        self._fan_out(miner, (bid,))
        # every membership change regroups, so the rate is still their sum
        self._schedule(head, group)

    # -- observation -------------------------------------------------------

    def _on_arrive(self, runs: List[tuple], blocks: Sequence[BlockId]):
        """`blocks` reach each run (see `_run`): the one ingestion path of
        the nodes.  The run's view observes each block and reads the head;
        the head moves (old, new, height) are found once, and each member
        takes them in push order as single arrivals would: a row each, and
        for a miner a regroup each."""
        canonical, stored, time = self._canonical, self.tree.blocks, self.time
        series, groups = self.series, self._groups
        for view, members in runs:
            moves, old = [], canonical[members[0][0]]
            for bid in blocks:
                view.observe(bid, time)
                head = self._node_canonical(view)
                if head != old:
                    moves.append((old, head, stored[head].height))
                    old = head
            for node, miner, victim in members:
                canonical[node] = old
                for prev, head, height in moves:
                    series.append((time, node, head, height))
                    if miner:  # `_regroup` drops a record left empty
                        groups[prev][0].remove(node)
                        if head in groups:
                            bisect.insort(groups[head][0], node)
                        else:
                            groups[head] = [[node], 0.0, None]
                        self._regroup((prev, head) if prev < head
                                      else (head, prev))
                if victim:  # one block until the item is conveyed
                    self._check_conveyance(blocks[0])

    def _on_att_obs(self, bid: BlockId):
        """att_obs hears an honest block, while its head is read: the head
        may start the attack or, under budish, let it broadcast."""
        if not self._obs_read:
            return
        self.att_obs.observe(bid, self.time)
        self._canonical["att_obs"] = self._node_canonical(self.att_obs)
        self._maybe_start_attack()
        self._check_broadcast_condition()

    def _check_conveyance(self, bid: BlockId):
        """The victim (n0) conveys the exchange item once it has observed
        alpha confirmation blocks of the transaction on the incumbent chain,
        which may let the attack broadcast."""
        if (self.conveyed_time is not None or self.fork_block is None
                or self.tree.blocks[bid].miner == ATTACKER):
            return
        need = self.cfg.attack.horizon_blocks
        fork_h = self.tree.block(self.fork_block).height
        if (self.tree.blocks[bid].height - fork_h >= need
                and self.tree.is_ancestor(self.fork_block, bid)):
            self.conveyed_time = self.time
            self._check_broadcast_condition()

    # -- attacker ----------------------------------------------------------

    def _maybe_start_attack(self):
        if self.fork_block is not None:
            return
        head = self._canonical["att_obs"]
        if self.tree.block(head).height < self.cfg.attack_start_height:
            return
        self.fork_block = head
        self.fork_time = self.time
        self._obs_read = self._target is None  # budish's broadcast test
        self._schedule_attacker_block(head)

    def _schedule_attacker_block(self, parent: BlockId):
        difficulty = self._retargets[parent][0]
        if self._rate is None:  # budish
            N = self.cfg.attack.horizon_blocks
            surplus = len(self.attacker_chain) >= N - 1
            hashrate = 1.0 + (self.cfg.attack.epsilon_extra if surplus else 0.0)
        else:
            hashrate = difficulty * self._rate
        if hashrate == 0:  # underflowed under negative growth: it stalls
            return
        dur = geometric_time(*self._adraw(difficulty, hashrate))
        self._push(self.time + dur, self._on_attacker_mine,
                   (parent, difficulty, hashrate, dur))

    def _on_attacker_mine(self, parent: BlockId, difficulty: float,
                          hashrate: float, duration: float):
        if self.broadcast_time is not None:
            return
        assert self.fork_time is not None
        bid = self._add_block(parent, difficulty, ATTACKER, hashrate, duration)
        self.attacker_chain.append(bid)
        start = self.time - duration - self.fork_time
        self.realized_cost += (self.cfg.attack.c * hashrate * duration
                               * self.cfg.attack.delta ** max(start, 0.0))
        if self._target is None or len(self.attacker_chain) < self._target:
            self._schedule_attacker_block(bid)
        self._check_broadcast_condition()

    def _check_broadcast_condition(self):
        """Broadcast once the item is conveyed and the secret chain holds its
        target, or under budish outweighs the honest tip."""
        chain = self.attacker_chain
        if self.broadcast_time is not None or self.conveyed_time is None \
                or not chain:
            return
        if self._target is None:
            cum = self.tree.cumulative_difficulty
            if cum(chain[-1]) <= cum(self._canonical["att_obs"]):
                return
        elif len(chain) < self._target:
            return
        self.broadcast_time = self.time
        self._obs_read = False
        self._fan_out(ATTACKER, tuple(self.attacker_chain))

    # -- reporting ---------------------------------------------------------

    def _report(self) -> RunReport:
        cfg = self.cfg
        heads = {n: self._canonical[n] for n in cfg.node_names()}
        heights = {n: self.tree.block(h).height for n, h in heads.items()}
        tips, chain = set(heads.values()), self.attacker_chain
        succeeded = (self.broadcast_time is not None
                     and self.conveyed_time is not None and bool(chain)
                     and any(self.tree.is_ancestor(chain[0], h) for h in tips))
        crossing = min((rec.deactivated_at
                        for rec in self.nodes["n0"].penalty_records()
                        if rec.deactivated_at is not None), default=None)
        revenue = 0.0
        if succeeded and self.broadcast_time is not None:
            assert self.fork_time is not None
            elapsed = self.broadcast_time - self.fork_time
            revenue = (cfg.attack.delta ** max(elapsed - 1.0, 0.0)
                       * (cfg.attack.v
                          + cfg.attack.p_B * len(self.attacker_chain)))
        return RunReport(
            protocol=cfg.protocol,
            seed=cfg.seed,
            horizon=cfg.horizon,
            attack_succeeded=succeeded,
            split_persists=len(tips) > 1,
            fork_block=self.fork_block,
            conveyed_time=self.conveyed_time,
            broadcast_time=self.broadcast_time,
            boundary_crossing_time=crossing,
            attacker_blocks=len(self.attacker_chain),
            realized_cost=self.realized_cost,
            realized_revenue=revenue,
            per_node_head=heads,
            per_node_height=heights,
            series=self.series,
            snapshot=self.tree.snapshot(),
        )


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run one end-to-end scenario and return its report."""
    return _Simulation(cfg).run()


def latency_split_check(cfg: ScenarioConfig) -> RunReport:
    """Engineer the latency split conditions: two honest mining nodes, one of
    which receives attacker broadcasts with the full delay bound, and more
    honest hashrate on the attacker's side of the partition."""
    if cfg.protocol != "adess":
        raise ConfigError("latency split check applies to the penalty protocol")
    if cfg.attacker_strategy not in ("fixed_growth", "accelerated"):
        raise ConfigError("use fixed_growth or accelerated strategy")
    engineered = replace(
        cfg,
        n_honest_nodes=2,
        honest_hashrates={"n0": 0.55, "n1": 0.45},
        delays={(ATTACKER, "n0"): 0.0, (ATTACKER, "n1"): cfg.delay,
                ("n0", "n1"): 0.0, ("n1", "n0"): 0.0},
        # large epoch: no retarget inside the run, so both sides keep pace
        difficulty=DifficultyRule.epoch(10 ** 6),
    )
    return run_scenario(engineered)


def disconnected_node_probe(cfg: ScenarioConfig, join_time: float
                            ) -> ProbeReport:
    """Diagnose a finished run as a node joining at `join_time` would: it
    gets the blocks n0 heard earlier without their order, so a fork whose
    second branch n0 heard then is undecidable.  With none, its head is
    n0's ADESS head; else it adopts the chain being mined: the last block n0
    connected if it arrived at or after the join, else the Nakamoto head."""
    number("join_time", join_time)  # before any event runs
    sim = _Simulation(cfg)
    sim.run()
    n0 = sim.nodes["n0"]
    seen = n0.tree  # a fork opens on its second child
    undecidable = [f for f in n0.fork_states() if seen.arrivals[
        seen.first_seen[seen.children[f][1]]][1] < join_time]
    nakamoto = n0.nakamoto_canonical()
    # the last block connected is a leaf: the head of the chain being mined
    last, arrival = seen.arrivals[-1]
    inferred = (n0.adess_canonical() if not undecidable
                else last if arrival >= join_time else nakamoto)
    return ProbeReport(
        join_time=join_time,
        undecidable_forks=undecidable,
        inferred_head=inferred,
        nakamoto_head=nakamoto,
        reference_head=sim._canonical["n0"],
    )
