"""Discrete-event simulation of honest miners, one attacker and observers.

The event loop is strictly sequential: events are processed in (time,
sequence-number) order, so identical configurations (including the seed)
replay bit-identically; a block reaching several nodes at one instant is one
arrive event.  Honest hashrate is grouped by the canonical head each mining
node currently follows; a group mines jointly.  A miner's head change
regroups only its old and new heads, a group that mined only itself.  A mine
event waits out its instant unless it may fall due in it, so a regroup then
(a miner hearing its own block) drops it unresolved.  The attacker mines a
secret chain and broadcasts it according to its strategy.

A view's state is a function of its (time, block) arrival sequence alone.
Receivers (the nodes and the attacker's observer `att_obs`) that hear every
sender at equal delays sit in the same arrive events in the same block
order, so they form a class sharing one `NodeView` over the simulator's tree
and a memo of the canonical head right after each block.  An arrive event
holds runs of consecutive receivers of one class, each observing a block and
finding its head changes once for all members; the members take them in one
loop, node-major: a series row each and, for a miner, a regroup each.
att_obs is fed only while its head is read: until the attack starts, and
under budish until the broadcast.

`validate` bounds the blocks a horizon allows at the unit pace every
retarget aims for by `_MAX_BLOCKS`; a run that mines faster fails with
`DomainError` once it passes the bound, so no configuration hangs.
"""

from __future__ import annotations

import bisect
import heapq
import io
import math
import random
from itertools import groupby
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import Block, BlockId, BlockTree
from .economics import AttackParams, boundary_blocks
from .errors import ConfigError, DomainError, check_numbers, number
from .forkchoice import AdessParams, NodeView
from .mining import (CertaintyEquivalent, DifficultyRule, MiningMode,
                     NEVER_FOUND, geometric_time)

ATTACKER = "attacker"

STRATEGIES = ("paper_optimal", "fixed_growth", "accelerated", "budish")

_MAX_BLOCKS = 100_000  # blocks a run may mine, see module doc
_MAX_NODES = 1_000  # honest nodes a run may hold


def accelerated_rate(xi: float, N: int, delay: float) -> float:
    """Growth factor that closes the latency window at the boundary:
    1 + {xi + (delay/N)(1+xi)}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return 1.0 + xi + (delay / N) * (1.0 + xi)


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
        derived, (`hashrates()`, `attacker_plan()`), for the run to use."""
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
        total = sum(rates.values())  # the scale of honest difficulty
        if total == math.inf:
            raise ConfigError("honest hashrates must have a finite sum")
        # one block per unit of time per mining node, and one for the attacker
        miners = sum(1 for h in rates.values() if h > 0)
        if self.horizon * (miners + 1) > _MAX_BLOCKS:
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
        if not (0 < min(1.0, total) * peak
                and max(1.0, total) * peak * _MAX_BLOCKS < math.inf):
            raise ConfigError("the attacker's difficulty overflows or "
                              "underflows a float before its chain reaches "
                              "its block target")
        return rates, plan

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
    undecidable: bool
    undecidable_forks: List[BlockId]
    inferred_head: Optional[BlockId]
    inference_used: bool
    nakamoto_head: BlockId
    reference_head: BlockId


class _Simulation:
    def __init__(self, cfg: ScenarioConfig):
        rates, (self._rate, self._target) = cfg.validate()
        self.cfg = cfg
        self.tree = BlockTree()
        self.time = 0.0
        self._seq = 0
        self._heap: List[tuple] = []
        self.rng_honest = random.Random(cfg.seed)
        self.rng_attacker = random.Random(cfg.seed ^ 0x5DEECE66D)
        # node -> hashrate of every mining node, in name order
        self._miners = {name: rate for name, rate
                        in sorted(rates.items()) if rate > 0}

        # sender -> (delay, receiver) links in push order; the receiver
        # att_obs tracks the honest chain on behalf of the attacker
        nodes = sorted(cfg.node_names())
        links = {m: [(0.0, "att_obs")] + [
            (cfg.link_delay(m, n), n) for n in nodes
            if n == m or n not in cfg.eclipse_from_honest]
            for m in self._miners}
        links[ATTACKER] = [(cfg.link_delay(ATTACKER, n), n)
                           for n in nodes if n not in cfg.eclipse_set]
        links[ATTACKER].append((0.0, "att_obs"))
        # receiver -> (view, {block id: canonical head right after it}),
        # shared by the class of receivers hearing every sender at equal delays
        heard: Dict[str, tuple] = {name: () for name in ("att_obs", *nodes)}
        for sender, sender_links in links.items():
            for delay, name in sender_links:
                heard[name] += ((sender, delay),)
        by_links: Dict[tuple, tuple] = {}
        self._views: Dict[str, Tuple[NodeView, Dict[BlockId, BlockId]]] = {}
        for name, key in heard.items():
            if key not in by_links:
                by_links[key] = (NodeView(cfg.adess, self.tree), {})
            self._views[name] = by_links[key]
        # sender -> (delay, runs) per stretch of links at one delay, in push
        # order; a run is consecutive links to one class (see _run)
        self._runs = {sender: [
            (delay, tuple(
                self._run(tuple(name for _, name in run)) for _, run in
                groupby(stretch, lambda link: self._views[link[1]][0])))
            for delay, stretch in groupby(sender_links, lambda link: link[0])]
            for sender, sender_links in links.items()}
        self.nodes: Dict[str, NodeView] = {
            name: self._views[name][0] for name in cfg.node_names()}
        self.att_obs = self._views["att_obs"][0]
        self._node_canonical = (NodeView.adess_canonical if cfg.protocol
                                == "adess" else NodeView.nakamoto_canonical)

        # the run's fixed rules, bound once: see `_push`
        rule = cfg.difficulty
        self._draw = cfg.mining._drawer(self.rng_honest)
        self._adraw = cfg.mining._drawer(self.rng_attacker)
        self._retarget = rule._retarget()
        self._epoch = rule.epoch_length if rule.mode == "epoch" else 0
        self._nextdiff: Dict[BlockId, float] = {self.tree.genesis_id: 1.0}
        # block -> (duration, parent's cell, durations since the last
        # retarget) under the epoch rule; no cell after a retarget
        self._epoch_hist: Dict[BlockId, tuple] = {}

        self._canonical: Dict[str, BlockId] = {
            name: self.tree.genesis_id for name in self._views}
        # head -> the miners following it, in name order
        self._members: Dict[BlockId, List[str]] = {
            self.tree.genesis_id: list(self._miners)}
        # head -> (hashrate, seq of its last draw) of each group; a mine
        # event whose seq is not stored here is stale
        self._groups: Dict[BlockId, Tuple[float, int]] = {}
        # seq -> (head, hashrate, difficulty, p, u, tick) drawn this instant
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
        for seq, (head, group, difficulty, p, u, tick) \
                in self._instant.items():
            dur = geometric_time(p, u, tick)
            heapq.heappush(self._heap, (self.time + dur, seq, self._on_mine,
                                        (head, group, difficulty, dur)))
        self._instant.clear()

    def _run(self, names: Tuple[str, ...]) -> tuple:
        """(view, memo, members, unread): a member is (name, miner, victim,
        observer), and unread drops att_obs.  Every member of a run holds one
        head, so `_on_arrive` finds the run's head changes once for all."""
        members = tuple((n, n in self._miners, n == "n0", n == "att_obs")
                        for n in names)
        unread = tuple(m for m in members if not m[3])
        return (*self._views[names[0]], members,
                unread if unread != members else members)

    def _fan_out(self, sender: str, blocks: Sequence[Block]):
        """Send `blocks` over the sender's links: one arrive event per
        arrival instant (unequal delays can share one) of its runs in push
        order, with consecutive seqs, so as if each (receiver, block) pair
        had its own event."""
        batches = self._runs[sender]
        if len(batches) == 1:  # one delay: one arrive event, no grouping
            return self._push(self.time + batches[0][0], self._on_arrive,
                              (batches[0][1], blocks))
        arrivals: Dict[float, List[tuple]] = {}
        for delay, runs in batches:
            arrivals.setdefault(self.time + delay, []).extend(runs)
        for time, runs in arrivals.items():
            self._push(time, self._on_arrive, (runs, blocks))

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
        if len(self.tree.blocks) > _MAX_BLOCKS:
            raise DomainError(f"the run mined more than {_MAX_BLOCKS} blocks "
                              f"before its horizon")
        bid = self.tree.append_block(parent, difficulty, miner, self.time)
        if self._epoch:
            cell = self._epoch_hist.get(parent)
            cell = (duration, cell, cell[2] + 1 if cell else 1)
            if cell[2] >= self._epoch:
                hist = []  # the closing epoch's durations, newest first
                while cell is not None:
                    hist.append(cell[0])
                    cell = cell[1]
                nd = self._retarget(difficulty, hashrate, hist[::-1])
            else:
                nd = difficulty
                self._epoch_hist[bid] = cell
        else:
            # applied hashrate stands in for the implied hashrate so that the
            # deterministic retarget recurrences are reproduced exactly
            nd = self._retarget(difficulty, hashrate)
        self._nextdiff[bid] = nd
        return bid

    # -- honest mining -----------------------------------------------------

    def _regroup(self, dirty: Sequence[BlockId]):
        """(Re)schedule one block-found event per group among the `dirty`
        heads (a miner left or joined, or the group mined), given in head
        order, summing member rates in name order as a full regroup would.
        A group whose hashrate is unchanged keeps its pending event, so a
        slow group's progress is never reset.  Superseded draws stay: the
        seeded RNG stream that fixes every run's output includes them."""
        groups, instant = self._groups, self._instant
        for head in dirty:
            hashrate = None  # no member, no group
            for name in self._members.get(head, ()):
                hashrate = (hashrate or 0.0) + self._miners[name]
            group = groups.get(head, (None, None))
            if group[0] == hashrate:
                continue  # pending event still valid, or still no group
            instant.pop(group[1], None)
            if hashrate is None:
                del groups[head]
                continue
            difficulty = self._nextdiff[head]
            p, u, tick = self._draw(difficulty, hashrate)
            seq = self._seq = self._seq + 1
            group = groups[head] = (hashrate, seq)
            if tick != NEVER_FOUND:  # else the group never finds a block
                instant[seq] = (head, group, difficulty, p, u, tick)
                if self.time + tick == self.time:
                    self._flush()  # it may fall due at this instant

    def _on_mine(self, head: BlockId, group: tuple, difficulty: float,
                 duration: float):
        if self._groups.get(head) is not group:
            return  # stale schedule, superseded by a regroup
        del self._groups[head]
        miner = self._members[head][0]  # the group's leader
        bid = self._add_block(head, difficulty, miner, group[0], duration)
        self._fan_out(miner, (self.tree.blocks[bid],))
        # the group that mined must be rescheduled even if no head changes
        self._regroup((head,))

    # -- observation -------------------------------------------------------

    def _on_arrive(self, runs: List[tuple], blocks: Sequence[Block]):
        """`blocks` reach each run (see `_run`): the one ingestion path of
        every receiver.  A block's head comes from the memo, as the view may
        be ahead and a second observe would queue an orphan twice, or else
        from observing it.  The run's head moves (old, new, height) are found
        once; each member, att_obs only if read, takes them in push order as
        single arrivals would: a row each, and for a miner a regroup each."""
        canonical, stored, time = self._canonical, self.tree.blocks, self.time
        series, following = self.series, self._members
        for view, memo, members, unread in runs:
            if members is not unread and not self._obs_read:
                members = unread
                if not members:
                    continue
            moves, old = [], canonical[members[0][0]]
            for block in blocks:
                head = memo.get(block.id)
                if head is None:
                    view.observe(block, time)
                    head = memo[block.id] = self._node_canonical(view)
                if head != old:
                    moves.append((old, head, stored[head].height))
                    old = head
            for node, miner, victim, observer in members:
                canonical[node] = old
                if observer:  # final head: the broadcast, the one event of
                    # several blocks, comes after att_obs's last read
                    self._maybe_start_attack()
                    self._check_broadcast_condition()
                    continue
                for prev, head, height in moves:
                    series.append((time, node, head, height))
                    if miner:
                        following[prev].remove(node)
                        if not following[prev]:
                            del following[prev]
                        if head in following:
                            bisect.insort(following[head], node)
                        else:
                            following[head] = [node]
                        self._regroup((prev, head) if prev < head
                                      else (head, prev))
                if victim and self.broadcast_time is None:  # one block
                    self._check_conveyance(blocks[0])
                    self._check_broadcast_condition()

    def _check_conveyance(self, block: Block):
        """The victim (n0) conveys the exchange item once it has observed
        alpha confirmation blocks of the transaction on the incumbent chain."""
        if (self.conveyed_time is not None or self.fork_block is None
                or block.miner == ATTACKER):
            return
        need = self.cfg.attack.horizon_blocks
        fork_h = self.tree.block(self.fork_block).height
        if (block.height - fork_h >= need
                and self.tree.is_ancestor(self.fork_block, block.id)):
            self.conveyed_time = self.time

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
        self._schedule_attacker_block()

    def _schedule_attacker_block(self):
        parent = self.attacker_chain[-1] if self.attacker_chain \
            else self.fork_block
        assert parent is not None
        difficulty = self._nextdiff[parent]
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
            self._schedule_attacker_block()
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
        self._fan_out(ATTACKER, [
            self.tree.block(bid) for bid in self.attacker_chain])

    # -- reporting ---------------------------------------------------------

    def _report(self) -> RunReport:
        cfg = self.cfg
        heads = {n: self._canonical[n] for n in self.nodes}
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
            series=list(self.series),
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
    """Replay a finished run into a node that joins at `join_time`: earlier
    blocks are bulk-synced without temporal order, later ones observed
    normally.  Penalty assignment at pre-join forks is undecidable; the
    operational fallback adopts the chain being actively mined."""
    sim = _Simulation(cfg)
    sim.run()
    reference = sim.nodes["n0"]
    late = NodeView(cfg.adess, sim.tree)
    post_join = 0
    for bid, arrival in reference.log.entries[1:]:
        block = sim.tree.block(bid)
        synced = arrival < join_time
        late.observe(block, arrival, synced=synced)
        post_join += not synced
    undecidable = bool(late.undecidable_forks)
    inferred = None
    if undecidable:
        # actively-mined chain: the head above the most recently arrived block
        if post_join:
            last = late.log.entries[-1][0]
            for head in sorted(late.tree.heads):
                if sim.tree.is_ancestor(last, head):
                    inferred = head
                    break
        if inferred is None:
            inferred = late.nakamoto_canonical()
    else:
        inferred = late.adess_canonical()
    return ProbeReport(
        join_time=join_time,
        undecidable=undecidable,
        undecidable_forks=late.undecidable_forks,
        inferred_head=inferred,
        inference_used=undecidable,
        nakamoto_head=late.nakamoto_canonical(),
        reference_head=sim._canonical["n0"],
    )
