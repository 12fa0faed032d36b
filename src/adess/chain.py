"""Block-tree data model: blocks, chains, heads and cumulative difficulty.

Blocks are identified by assigned integers rather than content hashes; ids
are only used for lookups and deterministic tie-breaking.  A "chain" is
always its head block's id; segments are derived on demand.  `Block` is a
named tuple: immutable, ordered, cheap to build.  A `BlockTree` is only a
store: it validates each block once, as it is written, and keeps blocks and
cumulative difficulty.  What a reader of the store has seen lives in its own
`SeenTree`: the arrival log, each block's place in it, children and heads,
which the reader's `NodeView._connect` alone writes.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .errors import DomainError, InvalidDifficulty, UnknownBlock

BlockId = int

GENESIS_ID: BlockId = 0


class Block(NamedTuple):
    id: BlockId
    parent: Optional[BlockId]
    height: int
    difficulty: float
    miner: str
    created_at: float


class SeenTree:
    """The blocks a reader has seen: `arrivals` logs (id, time) in arrival
    order from genesis at 0.0, `first_seen` maps an id to its index there,
    and `children` (in arrival order) and `heads` hold the tree."""

    def __init__(self, genesis_id: BlockId = GENESIS_ID):
        self.arrivals: List[Tuple[BlockId, float]] = [(genesis_id, 0.0)]
        self.first_seen: Dict[BlockId, int] = {genesis_id: 0}
        self.children: Dict[BlockId, List[BlockId]] = {genesis_id: []}
        self.heads: Set[BlockId] = {genesis_id}


class BlockTree:
    """Append-only block store with cached cumulative difficulty; one
    writer, pure reads."""

    def __init__(self, genesis_difficulty: float = 1.0, miner: str = "genesis",
                 time: float = 0.0, genesis_id: BlockId = GENESIS_ID):
        if not 0 < genesis_difficulty < math.inf:
            raise InvalidDifficulty("genesis difficulty must be finite and > 0")
        genesis = Block(genesis_id, None, 0, genesis_difficulty, miner, time)
        self.blocks: Dict[BlockId, Block] = {genesis_id: genesis}
        self._cumdiff: Dict[BlockId, float] = {genesis_id: genesis_difficulty}
        self._next_id: BlockId = genesis_id + 1
        self.genesis_id = genesis_id

    # -- writes ------------------------------------------------------------

    def append_block(self, parent: BlockId, difficulty: float, miner: str = "",
                     time: float = 0.0) -> BlockId:
        """Create a fresh block under `parent` and return its id."""
        bid = self._next_id
        height, self._cumdiff[bid] = self._child(parent, difficulty)
        self.blocks[bid] = tuple.__new__(Block, (  # skips a Python call
            bid, parent, height, difficulty, miner, time))
        self._next_id = bid + 1
        return bid

    def insert(self, block: Block) -> None:
        """Insert a fully formed block; one equal to a stored block is
        ignored, and one whose id the store holds with other fields raises."""
        held = self.blocks.get(block.id)
        if held is not None:
            if held != block:
                raise ValueError(f"block {block.id} differs from {held}")
            return
        height, cum = self._child(block.parent, block.difficulty)
        if block.height != height:
            raise ValueError(
                f"height {block.height} != parent height {height - 1} + 1")
        self.blocks[block.id] = block
        self._cumdiff[block.id] = cum
        self._next_id = max(self._next_id, block.id + 1)

    def _child(self, parent: Optional[BlockId], difficulty: float) -> tuple:
        """(height, cumulative difficulty) of a valid child of `parent`."""
        if parent not in self.blocks:
            raise UnknownBlock(f"unknown parent {parent}")
        if not 0 < difficulty < math.inf:
            raise InvalidDifficulty(f"difficulty {difficulty} must be finite, > 0")
        cum = self._cumdiff[parent] + difficulty
        if cum == math.inf:
            raise DomainError(f"cumulative difficulty overflows past {parent}")
        return self.blocks[parent].height + 1, cum

    # -- reads -------------------------------------------------------------

    def block(self, bid: BlockId) -> Block:
        try:
            return self.blocks[bid]
        except KeyError:
            raise UnknownBlock(f"unknown block {bid}") from None

    def cumulative_difficulty(self, bid: BlockId) -> float:
        if bid not in self._cumdiff:
            raise UnknownBlock(f"unknown block {bid}")
        return self._cumdiff[bid]

    def ancestor_at_height(self, bid: BlockId, height: int) -> Optional[BlockId]:
        b = self.block(bid)
        if height > b.height or height < 0:
            return None
        cur = bid
        while self.blocks[cur].height > height:
            cur = self.blocks[cur].parent
        return cur

    def is_ancestor(self, anc: BlockId, desc: BlockId) -> bool:
        """True iff `anc` lies on the genesis path of `desc` (inclusive)."""
        return self.ancestor_at_height(desc, self.block(anc).height) == anc

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> str:
        """Line-oriented dump, one `block ...` line per block, id order."""
        lines = [f"block {bid} parent={'-' if parent is None else parent}"
                 f" h={height} d={difficulty!r} t={created_at!r} miner={miner}"
                 for bid, parent, height, difficulty, miner, created_at
                 in map(self.blocks.__getitem__, sorted(self.blocks))]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_snapshot(cls, text: str) -> "BlockTree":
        """Parse `snapshot` output; a malformed line raises ValueError."""
        tree: Optional[BlockTree] = None
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("block "):
                continue
            try:
                parts = line.split()
                bid = int(parts[1])
                fields = dict(p.split("=", 1) for p in parts[2:])
                parent = None if fields["parent"] == "-" else int(fields["parent"])
                if (parent is None) != (tree is None):
                    raise ValueError("need exactly one genesis line, first")
                if tree is None:
                    tree = cls(genesis_difficulty=float(fields["d"]),
                               miner=fields["miner"], time=float(fields["t"]),
                               genesis_id=bid)
                else:
                    tree.insert(Block(bid, parent, int(fields["h"]),
                                      float(fields["d"]), fields["miner"],
                                      float(fields["t"])))
            except (KeyError, ValueError, InvalidDifficulty, DomainError,
                    UnknownBlock) as e:
                raise ValueError(f"bad snapshot line {line!r}: {e!r}") from None
        if tree is None:
            raise ValueError("snapshot contains no genesis block")
        return tree

