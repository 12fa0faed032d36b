"""Block-tree data model tests."""

from __future__ import annotations

from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adess.chain import Block, BlockTree, SeenTree
from adess.errors import DomainError, InvalidDifficulty, UnknownBlock
from adess.netsim import ScenarioConfig, _Simulation


def ancestors(tree: BlockTree, bid: Optional[int]) -> Iterator[int]:
    """Yield bid, then each ancestor up to and including genesis."""
    while bid is not None:
        yield bid
        bid = tree.block(bid).parent


def recompute_cumulative_difficulty(tree: BlockTree, bid: int) -> float:
    """Path-walk oracle for cumulative difficulty."""
    return sum(tree.block(b).difficulty for b in ancestors(tree, bid))


def seen_of(tree: BlockTree) -> SeenTree:
    """A SeenTree fed the tree's blocks in insertion order."""
    seen = SeenTree(tree.genesis_id)
    for bid in list(tree.blocks)[1:]:
        seen.insert(tree.block(bid))
    return seen


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
    assert seen_of(tree).heads == {a, b}


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
    assert seen_of(back).heads == seen_of(tree).heads


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


# -- the store, and children and heads in a SeenTree --------------------------

BAD_DIFFICULTIES = (0.0, -1.0, float("nan"), float("inf"))


def store_with_one_child(difficulty: float, restored: bool):
    """A store holding genesis and one child; `restored` rebuilds it from its
    snapshot, so both ways of filling a store face the same checks."""
    tree = BlockTree()
    a = tree.append_block(tree.genesis_id, difficulty)
    if restored:
        tree = BlockTree.from_snapshot(tree.snapshot())
    return tree, a


@pytest.mark.parametrize("restored", [False, True])
def test_store_and_tree_reject_the_same_blocks(restored):
    tree, a = store_with_one_child(1.0, restored)
    with pytest.raises(UnknownBlock):
        tree.append_block(99, 1.0)
    with pytest.raises(UnknownBlock):
        tree.insert(Block(7, 99, 2, 1.0, "", 0.0))
    for d in BAD_DIFFICULTIES:
        with pytest.raises(InvalidDifficulty):
            tree.append_block(a, d)
        with pytest.raises(InvalidDifficulty):
            tree.insert(Block(7, a, 2, d, "", 0.0))
    for height in (1, 3):
        with pytest.raises(ValueError, match="parent height 1"):
            tree.insert(Block(7, a, height, 1.0, "", 0.0))
    # nothing rejected was written
    assert sorted(tree.blocks) == sorted(tree._cumdiff) == [0, a]
    assert tree.append_block(a, 1.0) == 2


@pytest.mark.parametrize("restored", [False, True])
def test_an_infinite_cumulative_difficulty_is_rejected(restored):
    tree, a = store_with_one_child(1e308, restored)
    with pytest.raises(DomainError, match="cumulative difficulty"):
        tree.append_block(a, 1e308)
    with pytest.raises(DomainError, match="cumulative difficulty"):
        tree.insert(Block(2, a, 2, 1e308, "", 0.0))
    assert sorted(tree.blocks) == sorted(tree._cumdiff) == [0, a]


def test_a_simulation_store_keeps_only_blocks_and_cumulative_difficulty():
    sim = _Simulation(ScenarioConfig(n_honest_nodes=3, delay=0.3))
    sim.run()
    assert len(sim.tree.blocks) == len(sim.tree._cumdiff) > 10
    assert not hasattr(sim.tree, "children")
    assert not hasattr(sim.tree, "heads")


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_tree_children_and_heads_are_a_seen_tree_of_its_blocks(tree_ids):
    tree, ids = tree_ids
    seen = seen_of(tree)
    assert set(seen.children) == set(ids)
    assert seen.heads == {b for b in ids if not seen.children[b]}
    back = seen_of(BlockTree.from_snapshot(tree.snapshot()))
    assert back.children == seen.children and back.heads == seen.heads


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_a_snapshot_round_trip_of_a_run_rebuilds_children_and_heads(seed,
                                                                     nodes):
    rates = {f"n{i}": 1.0 for i in range(nodes)}
    sim = _Simulation(ScenarioConfig(
        n_honest_nodes=nodes, honest_hashrates=rates, delay=0.5,
        horizon=15.0, seed=seed))
    rep = sim.run()
    tree = BlockTree.from_snapshot(rep.snapshot)
    seen, ran = seen_of(tree), seen_of(sim.tree)
    assert seen.children == ran.children and seen.heads == ran.heads
    assert tree.snapshot() == rep.snapshot
    assert set(rep.per_node_head.values()) <= seen.heads
