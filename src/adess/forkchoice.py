"""Canonical-chain selection: Nakamoto scoring and the penalty protocol.

A NodeView is one network participant's subjective state: a `SeenTree` of
the blocks it has seen, with their arrival log, over a block store that views
may share, plus the penalty machinery derived from them.
Penalty assignment is driven purely by the order in which this node observed
blocks, so two views fed the same blocks in different orders may disagree;
identical orders agree exactly.  A chain is named by its head block's id.

Every block enters by id through `observe`, which reads it from the store
(the one writer of block fields; a view never writes) and checks its arrival
against the view's clock, the latest arrival connected or buffered, before
anything else; so a refused id or arrival changes no view state.  A block
marked `synced` (bulk sync for a node offline when it was broadcast) carries
no temporal order; that matters only if it opens a fork, which is then
created undecidable and never assigns a penalty.

Each fork is in one state: undecidable if a synced block opened it, else
undecided until a branch first reaches the confirmation depth.  That branch
is its baseline, found in `_advance`, or as the fork opens if its earlier
branch is already that deep (always so at alpha 1); the fork is then
resolved, or suppressed if the baseline chain carried an active penalty at
that depth.  Penalty state is kept in one `PenaltyRecord` per (fork-block,
branch) pair, a branch named by the fork-block child it passes through; it
holds the fork's id and height, not its state, so nothing refers back to its
owner.  Only a resolved fork penalizes: every branch but its baseline, late
siblings included, and each head descending through one.  A penalized record
holds its baseline's record `base`, reads both chains live, and is active
while `deactivated_at` is None.

Every block carries a fork-choice index entry, inherited from its parent when
it is connected, so no score or penalty query walks the tree.  Its reset is
None, or (anchor, anchor cumdiff, re-based score) for the deepest block on
its path where a chain's score was re-based.  A reset is recorded only at the
deepest block of a penalized branch, a leaf of the view's tree at that
moment, so setting it in that block's entry alone is exact.  Its fork path
holds the branch record of each fork it descends through, in fork-creation
order, for `_advance` to update in place: a new branch child swaps the record
in a sibling's path, and a new fork, the newest, is appended along its
existing subtree in one walk.

Each block also counts the active penalties on its path, inherited from its
parent, so a penalty test is one lookup.  The count is at most 1: `_fire`
suppresses a fork whose baseline is penalized; a branch holding a deeper
decided fork reached alpha first at the outer fork, so is its baseline; and
a late sibling is a fresh leaf under a fork unpenalized when it resolved.
Its only writers, `_penalize` (+1) and the deactivation in `_cross_check`
(-1, so it clears the chain's last penalty and may re-base), walk the
penalized branch's subtree; only they change other heads' eligibility or
scores.  The ADESS canonical (score, head) is cached.  A connecting block
takes it over if penalty-free and strictly heavier (the older head wins a
tie), or else clears it if it extends the cached head.  A deactivation
clears it, and so does a new penalty that covers the cached head; one that
misses it only removes candidates and moves no score, so the cached head
stays the best.  The next query after a clear rescores all heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .chain import Block, BlockId, BlockTree, SeenTree
from .errors import NotPenalized, UnknownBlock, check_numbers

#: Slack when comparing weighted lengths at the canonical boundary, so exact
#: products like 2*5 hold; `economics.boundary_blocks` takes its K with it.
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


@dataclass(slots=True, eq=False)  # compared by identity
class PenaltyRecord:
    """The branch of `fork` through `child`, with its first-seen deepest
    block; a penalty once it has the baseline branch's record `base`, from
    `assigned_at` until `deactivated_at` is set."""

    fork: BlockId
    height: int  # of the fork block
    child: BlockId  # the fork block's child the branch passes through
    tip: int  # height of the branch's first-seen deepest block
    deepest: BlockId  # that block
    base: Optional[PenaltyRecord] = None
    assigned_at: Optional[float] = None
    deactivated_at: Optional[float] = None


@dataclass(slots=True)
class _ForkState:
    state: str  # undecided, undecidable, suppressed or resolved: module doc
    branches: Dict[BlockId, PenaltyRecord] = field(default_factory=dict)
    baseline: Optional[PenaltyRecord] = None  # set once decided


class NodeView:
    """Single-threaded subjective state of one observing node.  Blocks are
    read from `store`, which views may share; `tree` holds the arrivals,
    children and heads this node has seen."""

    def __init__(self, params: AdessParams, store: BlockTree):
        self.params = params
        self.store = store
        self.tree = SeenTree(store.genesis_id)
        self._clock = 0.0  # latest arrival connected or buffered
        self._forks: Dict[BlockId, _ForkState] = {}
        self._pending: Dict[BlockId, List[Tuple[BlockId, bool]]] = {}
        # block -> (reset, fork path of branch records);
        # reset is (anchor, its cumdiff, its re-based score) for the deepest
        # re-based block on the path, or None
        self._index: Dict[BlockId, tuple] = {store.genesis_id: (None, ())}
        # block -> number of active penalties on its path; see module doc
        self._active: Dict[BlockId, int] = {store.genesis_id: 0}
        self._best: Optional[Tuple[float, BlockId]] = None  # see module doc

    # -- observation -------------------------------------------------------

    def observe(self, bid: BlockId, arrival: float,
                synced: bool = False) -> "NodeView":
        """Record the arrival of the store's block `bid` (an unknown id, or an
        arrival before the view's clock or NaN, raises first); orphans are
        buffered, with their own `synced` flag, and connect at their parent's
        arrival (in-order delivery per chain).

        `synced` ingests the block without temporal-order information (bulk
        sync for a node that was not connected when it was broadcast).  It
        matters only if the block opens a fork: that fork can never receive
        a penalty assignment and is flagged undecidable.  A synced block on
        a fork opened live counts toward alpha and the boundary like any
        other; syncing every earlier block before observing any live one,
        as a replay in arrival order does, never mixes the two."""
        block = self.store.block(bid)
        if not arrival >= self._clock:
            raise ValueError(
                f"arrival {arrival!r} breaks the non-decreasing order")
        if bid in self._index:
            return self
        self._clock = arrival
        if block.parent not in self._index:
            self._pending.setdefault(block.parent, []).append((bid, synced))
            return self
        self._connect(block, arrival, synced)
        # then the orphans waiting on it, depth first in arrival order, each
        # with its own flag (of a block delivered twice while it waited, the
        # first wins); a loop, as a chain of orphans may be long
        todo = self._pending.pop(bid, ())[::-1] if self._pending else ()
        while todo:
            bid, synced = todo.pop()
            if bid not in self._index:
                self._connect(self.store.blocks[bid], arrival, synced)
                todo += self._pending.pop(bid, ())[::-1]
        return self

    def _connect(self, block: Block, arrival: float, synced: bool):
        bid, parent, tree = block.id, block.parent, self.tree
        siblings = tree.children[parent]  # the tree's one writer logs it
        siblings.append(bid)
        tree.children[bid] = []
        tree.first_seen[bid] = len(tree.arrivals)
        tree.arrivals.append((bid, arrival))
        tree.heads.discard(parent)
        tree.heads.add(bid)
        self._active[bid] = self._active[parent]
        if len(siblings) > 1:
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

    # -- fork bookkeeping --------------------------------------------------

    def _scan_branch(self, fork: BlockId, fork_height: int, fs: _ForkState,
                     branch: BlockId) -> Optional[BlockId]:
        """Add the record of a pre-existing branch, with its first-seen
        deepest block, to the fork path of every block on it, and return its
        first-seen block at depth alpha past the fork, or None if none."""
        seen = self.tree.first_seen
        alpha_height = fork_height + self.params.alpha
        alpha_block: Optional[BlockId] = None
        br = fs.branches[branch] = PenaltyRecord(fork, fork_height, branch,
                                                 fork_height, branch)
        stack = [branch]
        while stack:
            bid = stack.pop()
            reset, path = self._index[bid]
            self._index[bid] = (reset, path + (br,))
            height = self.store.block(bid).height
            if height > br.tip or (height == br.tip
                                   and seen[bid] < seen[br.deepest]):
                br.tip, br.deepest = height, bid
            if height == alpha_height and (alpha_block is None
                                           or seen[bid] < seen[alpha_block]):
                alpha_block = bid
            stack.extend(self.tree.children[bid])
        return alpha_block

    def _new_branch(self, fork: BlockId, block: Block, arrival: float,
                    synced: bool):
        """Add `block` as a branch of `fork`, opening the fork state on its
        second child (undecidable if `block` is synced) and deciding it if
        the earlier branch is already alpha long."""
        fs = self._forks.get(fork)
        earlier, height = self.tree.children[fork][0], block.height - 1
        alpha_block = None
        if fs is None:
            fs = self._forks[fork] = _ForkState(
                "undecidable" if synced else "undecided")
            alpha_block = self._scan_branch(fork, height, fs, earlier)
        br = fs.branches[block.id] = PenaltyRecord(fork, height, block.id,
                                                   block.height, block.id)
        # index it: the parent's reset, and a sibling's fork path with the
        # record for this fork swapped
        path = self._index[earlier][1]
        i = path.index(fs.branches[earlier])
        self._index[block.id] = (self._index[fork][0],
                                 path[:i] + (br,) + path[i + 1:])
        if fs.state == "resolved":  # a late sibling: penalized at once
            self._cross_check(self._penalize(fs, br, arrival), arrival)
        elif alpha_block is not None:
            self._fire(fs, earlier, alpha_block, arrival)

    def _entry(self, bid: BlockId) -> tuple:
        try:
            return self._index[bid]
        except KeyError:
            raise UnknownBlock(f"unknown block {bid}") from None

    # -- penalty assignment ------------------------------------------------

    def _advance(self, block: Block, arrival: float):
        """Update the branch records on the new block's path and, on each
        branch it lengthens, decide the fork if the branch first reaches
        alpha, and sweep the canonical boundary if it is penalized."""
        height, alpha = block.height, self.params.alpha
        for br in self._index[block.id][1]:
            if height <= br.tip:
                continue
            br.tip, br.deepest = height, block.id
            if height - br.height == alpha:
                self._fire(self._forks[br.fork], br.child, block.id, arrival)
            if br.base is not None and br.deactivated_at is None:
                self._cross_check(br, arrival)

    def _fire(self, fs: _ForkState, baseline: BlockId, alpha_block: BlockId,
              arrival: float):
        """Decide a fork: `baseline`, the first branch to reach alpha (at
        `alpha_block`), is the baseline and every other branch is penalized."""
        if fs.state != "undecided":
            return
        fs.baseline = fs.branches[baseline]
        # generalized rule: a first-to-alpha chain that is itself under an
        # active penalty suppresses assignment at this fork entirely
        fs.state = "suppressed" if self._active[alpha_block] else "resolved"
        if fs.state == "suppressed":
            return
        new = [self._penalize(fs, br, arrival)
               for c, br in fs.branches.items() if c != baseline]
        for rec in new:
            self._cross_check(rec, arrival)

    def _penalize(self, fs: _ForkState, rec: PenaltyRecord,
                  arrival: float) -> PenaltyRecord:
        rec.base, rec.assigned_at = fs.baseline, arrival
        self._count_penalty(rec.child, 1)
        if self._best is not None and self._active[self._best[1]]:
            self._best = None  # else it only lost candidates: still _pick's
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
        len_pen, head_pen = rec.tip - rec.height, rec.deepest
        len_base = rec.base.tip - rec.height
        if len_pen < (1.0 + self.params.xi) * len_base - _BOUNDARY_EPS:
            return
        rec.deactivated_at = arrival
        self._count_penalty(rec.child, -1)
        self._best = None
        # re-base to the best baseline among the penalties on its path
        # deactivated now, this one among them
        path = self._index[head_pen][1]
        best = max(self._best_baseline_score(r.base) for r in path
                   if r.deactivated_at == arrival)
        assert not self.tree.children[head_pen]  # leaf: see module doc
        reset = (head_pen, self.store.cumulative_difficulty(head_pen),
                 best + self.params.epsilon)
        self._index[head_pen] = (reset, path)

    def _best_baseline_score(self, base: PenaltyRecord) -> float:
        """Best score among the heads of the baseline branch `base`; it has
        one, as every branch ends in a leaf whose fork path carries it."""
        return max(self.adjusted_score(h) for h in self.tree.heads
                   if base in self._index[h][1])

    # -- scoring -----------------------------------------------------------

    def adjusted_score(self, bid: BlockId) -> float:
        """Cumulative difficulty, re-based past the deepest crossing anchor
        on the chain's path."""
        reset = self._entry(bid)[0]  # raises UnknownBlock, as the store
        cum = self.store._cumdiff[bid]  # holds every block the view has seen
        if reset is None:
            return cum
        return reset[2] + (cum - reset[1])  # re-based score + growth since

    def penalized_score(self, bid: BlockId, fork: BlockId) -> float:
        """Discounted post-fork length of an actively penalized chain: the
        README's score of 1/(1+xi) per block past the fork.  An unknown
        fork raises NotPenalized before `bid` is looked up."""
        for rec in self.active_penalties(bid) if fork in self._forks else ():
            if rec.fork == fork:
                n = self.store.block(bid).height - rec.height
                return n / (1.0 + self.params.xi)
        raise NotPenalized(f"chain {bid} not penalized at {fork}")

    def active_penalties(self, bid: BlockId) -> List[PenaltyRecord]:
        return [r for r in self._entry(bid)[1]
                if r.base is not None and r.deactivated_at is None]

    def penalty_records(self) -> List[PenaltyRecord]:
        """All penalties ever assigned, by fork then penalized branch."""
        return [r for fork in sorted(self._forks)
                for _, r in sorted(self._forks[fork].branches.items())
                if r.base is not None]

    # -- canonical choice --------------------------------------------------

    def _pick(self, scored: List[Tuple[float, BlockId]]) -> tuple:
        best_score = max(s for s, _ in scored)
        tied = [h for s, h in scored if s == best_score]
        return best_score, min(tied, key=self.tree.first_seen.__getitem__)

    def nakamoto_canonical(self) -> BlockId:
        """Head with maximal raw cumulative difficulty; ties broken by
        earliest first-seen arrival."""
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

    def fork_states(self) -> Dict[BlockId, str]:
        """Each fork's state (see module doc), in fork-id order."""
        return {f: self._forks[f].state for f in sorted(self._forks)}

    @property
    def undecidable_forks(self) -> List[BlockId]:
        return sorted(f for f, fs in self._forks.items()
                      if fs.state == "undecidable")

    def never_penalized_witness(self) -> BlockId:
        """Constructive path walk from genesis choosing an un-penalized branch
        at every fork; returns a head that never carried a penalty."""
        cur = self.store.genesis_id
        while self.tree.children[cur]:
            fs = self._forks.get(cur)
            clean = sorted(c for c in self.tree.children[cur]
                           if fs is None or fs.branches[c].base is None)
            assert clean, f"every branch penalized at fork {cur}"
            cur = clean[0]
        return cur

    def penalty_ledger(self) -> str:
        """Dump records as `penalty chain=... fork=... baseline=...` lines."""
        lines = []
        for rec in self.penalty_records():
            on = rec.deactivated_at is None
            lines.append(
                f"penalty chain={rec.deepest} fork={rec.fork} "
                f"baseline={rec.base.deepest} active={int(on)} "
                f"t_on={rec.assigned_at!r} "
                f"t_off={'-' if on else repr(rec.deactivated_at)}")
        return "\n".join(lines) + ("\n" if lines else "")
