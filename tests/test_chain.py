"""Block-tree data model tests."""

from __future__ import annotations

from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adess.chain import Block, BlockTree
from adess.errors import InvalidDifficulty, UnknownBlock


def ancestors(tree: BlockTree, bid: Optional[int]) -> Iterator[int]:
    """Yield bid, then each ancestor up to and including genesis."""
    while bid is not None:
        yield bid
        bid = tree.block(bid).parent


def recompute_cumulative_difficulty(tree: BlockTree, bid: int) -> float:
    """Path-walk oracle for cumulative difficulty."""
    return sum(tree.block(b).difficulty for b in ancestors(tree, bid))


def chain(tree: BlockTree, parent: int, n: int, difficulty: float = 1.0) -> int:
    for _ in range(n):
        parent = tree.append_block(parent, difficulty)
    return parent


def test_append_to_genesis():
    tree = BlockTree()
    child = tree.append_block(tree.genesis_id, 1.0)
    assert tree.block(child).height == 1
    assert tree.cumulative_difficulty(child) == 2.0


def test_two_children_are_both_heads():
    tree = BlockTree()
    a = tree.append_block(tree.genesis_id, 1.0)
    b = tree.append_block(tree.genesis_id, 1.0)
    assert tree.heads == {a, b}


def test_chain_of_five_cumdiff():
    tree = BlockTree()
    head = chain(tree, tree.genesis_id, 5)
    assert tree.cumulative_difficulty(head) == 6.0


def test_append_errors():
    tree = BlockTree()
    with pytest.raises(UnknownBlock):
        tree.append_block(999, 1.0)
    with pytest.raises(InvalidDifficulty):
        tree.insert(Block(5, tree.genesis_id, 1, -1.0, "", 0.0))


def test_non_finite_difficulty_is_rejected():
    nan, inf = float("nan"), float("inf")
    for d in (nan, inf):
        with pytest.raises(InvalidDifficulty):
            BlockTree(genesis_difficulty=d)
        with pytest.raises(InvalidDifficulty):
            BlockTree().insert(Block(1, 0, 1, d, "", 0.0))


def test_snapshot_block_errors_are_value_errors_naming_the_line():
    genesis = "block 0 parent=- h=0 d=1.0 t=0 miner=g\n"
    for text, line in (
            ("block 0 parent=- h=0 d=nan t=0 miner=g\n", "d=nan"),
            (genesis + "block 1 parent=0 h=1 d=nan t=0 miner=a\n", "d=nan"),
            (genesis + "block 1 parent=0 h=1 d=-1.0 t=0 miner=a\n", "d=-1.0"),
            (genesis + "block 2 parent=7 h=1 d=1 t=0 miner=a\n", "parent=7")):
        with pytest.raises(ValueError, match=f"bad snapshot line .*{line}"):
            BlockTree.from_snapshot(text)


def test_snapshot_roundtrip():
    tree = BlockTree()
    fork = chain(tree, tree.genesis_id, 3, difficulty=1.5)
    chain(tree, fork, 2, difficulty=2.25)
    chain(tree, fork, 4)
    text = tree.snapshot()
    back = BlockTree.from_snapshot(text)
    assert back.snapshot() == text
    assert back.heads == tree.heads


def test_snapshot_block_before_genesis_is_a_value_error():
    text = "block 1 parent=0 h=1 d=1.0 t=0.0 miner=a\n" \
        "block 0 parent=- h=0 d=1.0 t=0.0 miner=g\n"
    with pytest.raises(ValueError, match="block 1 parent=0"):
        BlockTree.from_snapshot(text)


def test_snapshot_missing_field_is_a_value_error():
    text = "block 0 parent=- h=0 d=1.0 miner=g\n"
    with pytest.raises(ValueError, match="block 0 parent=-.*'t'"):
        BlockTree.from_snapshot(text)


def test_snapshot_second_genesis_is_a_value_error():
    tree = BlockTree()
    chain(tree, tree.genesis_id, 2)
    text = tree.snapshot() + "block 9 parent=- h=0 d=1.0 t=0.0 miner=g\n"
    with pytest.raises(ValueError, match="block 9 parent=-"):
        BlockTree.from_snapshot(text)


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    tree = BlockTree()
    ids = [tree.genesis_id]
    for _ in range(n):
        parent = draw(st.sampled_from(ids))
        d = draw(st.floats(min_value=0.1, max_value=10.0,
                           allow_nan=False, allow_infinity=False))
        ids.append(tree.append_block(parent, d))
    return tree, ids


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_cumdiff_matches_path_walk_oracle(tree_ids):
    tree, ids = tree_ids
    for bid in ids:
        assert tree.cumulative_difficulty(bid) == pytest.approx(
            recompute_cumulative_difficulty(tree, bid), rel=1e-12)

