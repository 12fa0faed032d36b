"""Canonical-chain selection: Nakamoto scoring and the penalty protocol.

A NodeView is one network participant's subjective state: an arrival-ordered
observation log and a `SeenTree` of the blocks it has seen, over a block
store that views may share, plus the penalty machinery derived from them.
Penalty assignment is driven purely by the order in which this node observed
blocks, so two views fed the same blocks in different orders may disagree;
identical orders agree exactly.  A chain is named by its head block's id.

Every block enters through `observe`, which writes it to the store (a no-op
for a block the store holds) and logs it before the tree or index change, so
a refused block or arrival changes no view state.  A block marked `synced`
(bulk sync for a node that was offline when it was broadcast) carries no
temporal order; that matters only if it opens a fork, which is then created
undecidable and never assigns a penalty.

Penalty state is kept per (fork-block, branch) pair, where a branch is
identified by the fork-block child it passes through.  Every head descending
through a penalized branch is penalized; the first branch observed to reach
the confirmation depth is the baseline and is never penalized at that fork.
The fork is decided the moment that happens, in `_advance`, or as it opens if
its earlier branch is already that deep (always so at alpha 1).
Records exist only at resolved forks: a decidable fork whose baseline chain
was penalty-free when it reached the depth.  A record reads its chains live
from the fork's branch lengths, and is active until `deactivated_at` is set.

Every block carries a fork-choice index entry, inherited from its parent when
it is connected, so no score or penalty query walks the tree.  Its reset
anchor is the deepest block on its path where a chain's score was re-based.
A reset is recorded only at the deepest block of a penalized branch, which is
a leaf of the view's tree at that moment, so setting the anchor on that block
alone is exact.  Its fork path holds a (fork state, branch child) entry per
fork it descends through, in fork-creation order: a new branch child swaps
the entry in a sibling's path, and a new fork, the newest, is appended along
its existing subtree in one walk, where blocks that shared an entry share
the extended one.

Each block also counts the active penalties on its path, inherited from its
parent, so a penalty test is one lookup.  The count is at most 1: `_fire`
suppresses a fork whose baseline is penalized; a branch holding a deeper
decided fork reached alpha first at the outer fork, so is its baseline; and
a late sibling is a fresh leaf under a fork unpenalized when it resolved.
Its only writers, `_make_record` (+1) and the deactivation in `_cross_check`
(-1, so it clears the chain's last penalty and may re-base), walk the
penalized branch's subtree; only they change other heads' eligibility or
scores.  The ADESS canonical (score, head) is cached.  A connecting block
takes it over if penalty-free and strictly heavier (the older head wins a
tie), or else clears it if it extends the cached head; the two writers
clear it too, and the next query rescores all heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .chain import Block, BlockId, BlockTree, SeenTree
from .errors import NotPenalized, UnknownBlock, check_numbers

#: Tolerance used when comparing weighted lengths at the canonical boundary.
_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class AdessParams:
    """Protocol parameters for penalty scoring.

    alpha: confirmation depth in blocks (>= 1).
    xi: penalty parameter; a penalized chain scores 1/(1+xi) per block.
    epsilon: score bump granted on crossing the canonical boundary.
    """

    alpha: int = 6
    xi: float = 1.0
    epsilon: float = 1e-6

    def __post_init__(self):
        check_numbers(self)
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.xi <= 0:
            raise ValueError("xi must be > 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


class ObservationLog:
    """Arrival-ordered log of observed blocks with a first-seen index."""

    def __init__(self):
        self.entries: List[Tuple[BlockId, float]] = []
        self.first_seen: Dict[BlockId, int] = {}

    def append(self, bid: BlockId, arrival: float) -> int:
        if bid in self.first_seen:
            raise ValueError(f"block {bid} already logged")
        if self.entries and arrival < self.entries[-1][1]:
            raise ValueError("arrival times must be non-decreasing")
        idx = len(self.entries)
        self.entries.append((bid, arrival))
        self.first_seen[bid] = idx
        return idx

    def __len__(self):
        return len(self.entries)

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self.first_seen


@dataclass
class PenaltyRecord:
    """A penalty assigned at `fork` to the branch through `penalized_branch`,
    against the baseline branch; active until `deactivated_at` is set."""

    fork: BlockId
    penalized_branch: BlockId
    baseline_branch: BlockId
    assigned_at: float
    # the fork's branch child -> (length, deepest block) table, shared
    _branch_len: Dict[BlockId, Tuple[int, BlockId]] = field(
        repr=False, compare=False)
    deactivated_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.deactivated_at is None

    @property
    def penalized(self) -> BlockId:
        """Current deepest head of the penalized branch."""
        return self._branch_len[self.penalized_branch][1]

    @property
    def baseline(self) -> BlockId:
        """Current deepest head of the baseline branch."""
        return self._branch_len[self.baseline_branch][1]


@dataclass
class _ForkState:
    fork: BlockId
    height: int  # of the fork block
    # branch child -> (max post-fork length, deepest block achieving it)
    branch_len: Dict[BlockId, Tuple[int, BlockId]] = field(default_factory=dict)
    records: Dict[BlockId, PenaltyRecord] = field(default_factory=dict)
    undecidable: bool = False
    baseline_branch: Optional[BlockId] = None  # set once assigned


class NodeView:
    """Single-threaded subjective state of one observing node.  Blocks are
    written to and read from `store`, a given one or its own; `tree` holds
    the children and heads this node has seen."""

    def __init__(self, params: AdessParams, store: Optional[BlockTree] = None):
        self.params = params
        self.store = BlockTree() if store is None else store
        self.tree = SeenTree(self.store.genesis_id)
        self.log = ObservationLog()
        self.log.append(self.store.genesis_id, 0.0)
        self._forks: Dict[BlockId, _ForkState] = {}
        self._pending: Dict[BlockId, List[Tuple[Block, float, bool]]] = {}
        # reset anchor block -> (cumdiff at anchor, re-based score at anchor)
        self._resets: Dict[BlockId, Tuple[float, float]] = {}
        # block -> (deepest reset anchor on its path or None, fork path of
        # (fork state, branch child) pairs); equal entries share one tuple
        self._index: Dict[BlockId, tuple] = {self.store.genesis_id: (None, ())}
        # block -> number of active penalties on its path; see module doc
        self._active: Dict[BlockId, int] = {self.store.genesis_id: 0}
        self._best: Optional[Tuple[float, BlockId]] = None  # see module doc

    # -- observation -------------------------------------------------------

    def observe(self, block: Block, arrival: float,
                synced: bool = False) -> "NodeView":
        """Record the arrival of `block`; orphans are buffered, with their
        own `synced` flag, until their parent is observed (in-order delivery
        per chain).

        `synced` ingests the block without temporal-order information (bulk
        sync for a node that was not connected when it was broadcast).  It
        matters only if the block opens a fork: that fork can never receive
        a penalty assignment and is flagged undecidable.  A synced block on
        a fork opened live counts toward alpha and the boundary like any
        other; syncing every earlier block before observing any live one,
        as a replay in arrival order does, never mixes the two."""
        if block.id in self._index:
            return self
        if block.parent not in self._index:
            self._pending.setdefault(block.parent, []).append(
                (block, arrival, synced))
            return self
        self._connect(block, arrival, synced)
        return self

    def _connect(self, block: Block, arrival: float, synced: bool):
        self.store.insert(block)  # validates first; a stored block returns
        self.log.append(block.id, arrival)  # may raise; the tree is untouched
        self.tree.insert(block)
        bid, parent = block.id, block.parent
        assert parent is not None
        self._active[bid] = self._active[parent]
        if len(self.tree.children[parent]) > 1:
            self._new_branch(parent, block, arrival, synced)
        else:
            self._index[bid] = self._index[parent]

        if self._index[bid][1]:  # a block under no fork has none to advance
            self._advance(block, arrival)
        if self._best is not None:  # adjusted_score, common case inlined
            score = (self.store._cumdiff[bid] if self._index[bid][0] is None
                     else self.adjusted_score(bid))
            if score > self._best[0] and not self._active[bid]:
                self._best = (score, bid)
            elif parent == self._best[1]:
                self._best = None

        # flush any orphans waiting on this block, each with its own flag; of
        # a block delivered twice while it waited, the first arrival wins
        for child, child_arrival, child_synced in (
                self._pending and self._pending.pop(bid, ())):
            if child.id not in self._index:
                self._connect(child, max(child_arrival, arrival), child_synced)

    # -- fork bookkeeping --------------------------------------------------

    def _scan_branch(self, fs: _ForkState, branch: BlockId
                     ) -> Optional[BlockId]:
        """Initialize the length of a pre-existing branch, append (fs, branch)
        to the fork path of every block on it, and return its first-seen
        block at depth alpha past the fork, or None if it is shorter."""
        alpha, seen = self.params.alpha, self.log.first_seen
        best_len, best_block = 0, branch
        alpha_block: Optional[BlockId] = None
        entry = (fs, branch)
        # id(old index entry) -> (old, extended); holding `old` keeps its id
        # from being reused while the walk runs
        extended: Dict[int, tuple] = {}
        stack = [branch]
        while stack:
            bid = stack.pop()
            old = self._index[bid]
            hit = extended.get(id(old))
            if hit is None:
                hit = extended[id(old)] = (old, (old[0], old[1] + (entry,)))
            self._index[bid] = hit[1]
            depth = self.store.block(bid).height - fs.height
            if depth > best_len or (depth == best_len and bid < best_block):
                best_len, best_block = depth, bid
            if depth == alpha and (alpha_block is None
                                   or seen[bid] < seen[alpha_block]):
                alpha_block = bid
            stack.extend(self.tree.children[bid])
        fs.branch_len[branch] = (best_len, best_block)
        return alpha_block

    def _new_branch(self, fork: BlockId, block: Block, arrival: float,
                    synced: bool):
        """Add `block` as a branch of `fork`, opening the fork state on its
        second child (undecidable if `block` is synced) and deciding it if
        the earlier branch is already alpha long."""
        fs = self._forks.get(fork)
        earlier = self.tree.children[fork][0]
        alpha_block = None
        if fs is None:
            fs = self._forks[fork] = _ForkState(
                fork, block.height - 1, undecidable=synced)
            alpha_block = self._scan_branch(fs, earlier)
        fs.branch_len[block.id] = (1, block.id)
        # index it: the parent's anchor, and a sibling's fork path with the
        # entry for this fork swapped
        path = tuple((fs, block.id) if e[0] is fs else e
                     for e in self._index[earlier][1])
        self._index[block.id] = (self._index[fork][0], path)
        if fs.records:
            # late sibling at an already-resolved fork: penalized immediately
            self._cross_check(self._make_record(fs, block.id, arrival), arrival)
        elif alpha_block is not None:
            self._fire(fs, earlier, alpha_block, arrival)

    def _fork_path(self, bid: BlockId) -> tuple:
        entry = self._index.get(bid)
        if entry is None:
            raise UnknownBlock(f"unknown block {bid}")
        return entry[1]

    def _branch_at(self, fs: _ForkState, bid: BlockId) -> Optional[BlockId]:
        """Branch child of fs.fork through which `bid` descends, or None."""
        for f, c in self._fork_path(bid):
            if f is fs:
                return c
        return None

    # -- penalty assignment ------------------------------------------------

    def _advance(self, block: Block, arrival: float):
        """Update per-fork lengths for the new block and, on each branch it
        lengthens, decide the fork if the branch first reaches alpha, and
        sweep the canonical boundary."""
        alpha = self.params.alpha
        for fs, c in self._index[block.id][1]:
            depth = block.height - fs.height
            if depth <= fs.branch_len[c][0]:
                continue
            fs.branch_len[c] = (depth, block.id)
            if depth == alpha:
                self._fire(fs, c, block.id, arrival)
            rec = fs.records.get(c)
            if rec is not None and rec.deactivated_at is None:
                self._cross_check(rec, arrival)

    def _fire(self, fs: _ForkState, baseline: BlockId, alpha_block: BlockId,
              arrival: float):
        """Decide a fork: `baseline`, the first branch to reach alpha (at
        `alpha_block`), is the baseline and every other branch is penalized."""
        if fs.undecidable or fs.baseline_branch is not None:
            return
        fs.baseline_branch = baseline
        if self._active[alpha_block]:
            # generalized rule: a first-to-alpha chain that is itself under an
            # active penalty suppresses assignment at this fork entirely
            return
        new = [self._make_record(fs, c, arrival)
               for c in self.tree.children[fs.fork] if c != baseline]
        for rec in new:
            self._cross_check(rec, arrival)

    def _make_record(self, fs: _ForkState, branch: BlockId,
                     arrival: float) -> PenaltyRecord:
        assert fs.baseline_branch is not None
        rec = PenaltyRecord(fs.fork, branch, fs.baseline_branch, arrival,
                            fs.branch_len)
        fs.records[branch] = rec
        self._count_penalty(branch, 1)
        self._best = None
        return rec

    def _count_penalty(self, branch: BlockId, delta: int):
        """Add `delta` to the active-penalty count of `branch`'s subtree."""
        stack = [branch]
        while stack:
            bid = stack.pop()
            self._active[bid] += delta
            stack.extend(self.tree.children[bid])

    # -- canonical boundary ------------------------------------------------

    def _cross_check(self, rec: PenaltyRecord, arrival: float):
        """Deactivate the active `rec` if its branch has reached the canonical
        boundary, re-basing the chain's score (see module doc)."""
        len_pen, head_pen = rec._branch_len[rec.penalized_branch]
        len_base, _ = rec._branch_len[rec.baseline_branch]
        if len_pen < (1.0 + self.params.xi) * len_base - _BOUNDARY_EPS:
            return
        rec.deactivated_at = arrival
        self._count_penalty(rec.penalized_branch, -1)
        self._best = None
        # re-base to the best baseline among penalties deactivated now
        best = None
        for other, c in self._fork_path(head_pen):
            orec = other.records.get(c)
            if orec is None or orec.deactivated_at != arrival:
                continue
            score = self._best_baseline_score(other)
            if best is None or score > best:
                best = score
        if best is not None:
            assert not self.tree.children[head_pen]  # leaf: see module doc
            self._resets[head_pen] = (
                self.store.cumulative_difficulty(head_pen),
                best + self.params.epsilon,
            )
            self._index[head_pen] = (head_pen, self._index[head_pen][1])

    def _best_baseline_score(self, fs: _ForkState) -> float:
        """Best score among the heads of the fork's baseline branch; it has
        one, as every branch ends in a leaf whose fork path carries it."""
        return max(self.adjusted_score(h) for h in self.tree.heads
                   if self._branch_at(fs, h) == fs.baseline_branch)

    # -- scoring -----------------------------------------------------------

    def adjusted_score(self, bid: BlockId) -> float:
        """Cumulative difficulty, re-based past the deepest crossing anchor
        on the chain's path."""
        cum = self.store.cumulative_difficulty(bid)
        anchor = self._index[bid][0]
        if anchor is None:
            return cum
        anchor_cum, value = self._resets[anchor]
        return value + (cum - anchor_cum)

    def penalized_score(self, bid: BlockId, fork: BlockId) -> float:
        """Discounted post-fork length of an actively penalized chain: the
        README's score of 1/(1+xi) per block past the fork."""
        fs = self._forks.get(fork)
        rec = fs.records.get(self._branch_at(fs, bid)) if fs else None
        if rec is None or rec.deactivated_at is not None:
            raise NotPenalized(f"chain {bid} not penalized at {fork}")
        n = self.store.block(bid).height - fs.height
        return n / (1.0 + self.params.xi)

    def active_penalties(self, bid: BlockId) -> List[PenaltyRecord]:
        recs = (fs.records.get(c) for fs, c in self._fork_path(bid))
        return [r for r in recs if r is not None and r.deactivated_at is None]

    def penalty_records(self) -> List[PenaltyRecord]:
        """All records ever assigned, by fork then penalized branch."""
        out = []
        for fork in sorted(self._forks):
            records = self._forks[fork].records
            out.extend(records[b] for b in sorted(records))
        return out

    # -- canonical choice --------------------------------------------------

    def _pick(self, scored: List[Tuple[float, BlockId]]) -> tuple:
        best_score = max(s for s, _ in scored)
        tied = [h for s, h in scored if s == best_score]
        if len(tied) > 1:
            tied.sort(key=lambda h: (self.log.first_seen[h], h))
        return best_score, tied[0]

    def nakamoto_canonical(self) -> BlockId:
        """Head with maximal raw cumulative difficulty; ties broken by
        earliest first-seen arrival, then lowest id."""
        scored = [(self.store.cumulative_difficulty(h), h)
                  for h in self.tree.heads]
        return self._pick(scored)[1]

    def adess_canonical(self) -> BlockId:
        """Head with maximal (possibly re-based) cumulative difficulty among
        chains carrying no active penalty."""
        if self._best is None:
            scored = [(self.adjusted_score(h), h) for h in self.tree.heads
                      if not self._active[h]]
            if not scored:
                raise RuntimeError("no penalty-free chain: invariant violated")
            self._best = self._pick(scored)
        return self._best[1]

    # -- diagnostics -------------------------------------------------------

    @property
    def undecidable_forks(self) -> List[BlockId]:
        return sorted(f for f, fs in self._forks.items() if fs.undecidable)

    def never_penalized_witness(self) -> BlockId:
        """Constructive path walk from genesis choosing an un-penalized branch
        at every fork; returns a head that never carried a penalty."""
        cur = self.store.genesis_id
        while self.tree.children[cur]:
            fs = self._forks.get(cur)
            clean = sorted(c for c in self.tree.children[cur]
                           if fs is None or c not in fs.records)
            assert clean, f"every branch penalized at fork {cur}"
            cur = clean[0]
        return cur

    def penalty_ledger(self) -> str:
        """Dump records as `penalty chain=... fork=... baseline=...` lines."""
        lines = []
        for rec in self.penalty_records():
            t_off = "-" if rec.deactivated_at is None else repr(rec.deactivated_at)
            lines.append(
                f"penalty chain={rec.penalized} fork={rec.fork} "
                f"baseline={rec.baseline} active={1 if rec.active else 0} "
                f"t_on={rec.assigned_at!r} t_off={t_off}")
        return "\n".join(lines) + ("\n" if lines else "")
