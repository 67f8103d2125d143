import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import children_reference as ref
from maxmintrees.mindecomp import (
    MinDecompTree,
    _leaf_counts,
    build_min_decomp,
    weight_via_leaves,
)
from maxmintrees.perms import descent_values
from maxmintrees.trees import build_max_weight_tree, subtree, weight_recursive

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def stem_and_leaves(t):
    leaves = t.leaves()
    return frozenset(range(1, len(t.parent))) - leaves, leaves


def moved_up(t, leaf):
    """t with ``leaf`` reattached to its grandparent, validated by the constructor."""
    moved = list(t.parent)
    moved[leaf] = t.parent[t.parent[leaf]]
    return MinDecompTree(moved)


# every valid parent array on 1..40 labels: parent[v] anywhere in 1..v-1,
# most of them built by no permutation
parent_arrays = st.integers(1, 40).flatmap(
    lambda m: st.tuples(*(st.integers(1, v - 1) for v in range(2, m + 1)))
).map(lambda tail: (0, 0) + tail)


class TestBuild:
    def test_15_example_edges(self):
        t = build_min_decomp(EXAMPLE_15)
        kids = ref.children(t.parent)
        assert {v: kids[v] for v in range(1, 17) if kids[v]} == {
            1: [2],
            2: [3, 4, 12, 14],
            3: [8],
            4: [5, 6, 13],
            5: [7, 9],
            7: [11],
            9: [10],
            12: [15],
            14: [16],
        }

    def test_identity_is_path(self):
        for n in range(1, 8):
            t = build_min_decomp(tuple(range(1, n + 1)))
            assert t.parent == (0, 0) + tuple(range(1, n + 1))

    def test_reversal_is_star(self):
        for n in range(2, 8):
            t = build_min_decomp(tuple(range(n, 0, -1)))
            assert t.parent == (0, 0) + (1,) * n

    def test_parents_always_smaller(self):
        for n in range(1, 8):
            for p in all_perms(n):
                t = build_min_decomp(p)
                assert all(t.parent[v] < v for v in range(2, n + 2))


class TestStemAndLeaves:
    def test_identity(self):
        n = 5
        stem, leaves = stem_and_leaves(build_min_decomp(tuple(range(1, n + 1))))
        assert stem == frozenset(range(1, n + 1))
        assert leaves == frozenset({n + 1})

    def test_15_example(self):
        leaves = build_min_decomp(EXAMPLE_15).leaves()
        assert leaves == {15, 13, 10, 11, 6, 8, 16}

    def test_reversal(self):
        n = 6
        stem, leaves = stem_and_leaves(build_min_decomp(tuple(range(n, 0, -1))))
        assert stem == frozenset({1})
        assert leaves == frozenset(range(2, n + 2))

    def test_leaves_are_descent_values_plus_top(self):
        for n in range(1, 8):
            for p in all_perms(n):
                leaves = build_min_decomp(p).leaves()
                assert leaves == descent_values(p) | {n + 1}, p


class TestWeightViaLeaves:
    def test_identity(self):
        for n in range(1, 8):
            assert weight_via_leaves(build_min_decomp(tuple(range(1, n + 1)))) == 0

    def test_132(self):
        assert weight_via_leaves(build_min_decomp((1, 3, 2))) == 1

    def test_reversal(self):
        for n in range(2, 8):
            assert weight_via_leaves(build_min_decomp(tuple(range(n, 0, -1)))) == 0

    def test_matches_tree_weight_exhaustively(self):
        for n in range(1, 8):
            for p in all_perms(n):
                wl = weight_via_leaves(build_min_decomp(p))
                wr = weight_recursive(build_max_weight_tree(p))
                assert wl == wr, p


class TestDescendantsMatchSubtrees:
    def test_exhaustive(self):
        # a label's subtree in the max-weight tree is itself plus
        # everything below it in the minimum decomposition
        for n in range(1, 7):
            for p in all_perms(n):
                kids = ref.children(build_min_decomp(p).parent)
                mx = build_max_weight_tree(p)
                for v in range(1, n + 2):
                    assert ref.descendants(kids, v) | {v} == subtree(mx, v), (p, v)


class TestParentPass:
    @settings(max_examples=200, deadline=None)
    @given(parent_arrays)
    def test_matches_children_lists(self, parent):
        t = MinDecompTree(parent)
        kids = ref.children(parent)
        assert t.leaves() == ref.leaves(kids)
        assert _leaf_counts(parent)[1:] == ref.leaf_counts(kids)[1:]
        assert weight_via_leaves(t) == ref.weight(kids)


class TestMoveUp:
    def test_drops_weight_by_one(self):
        t = build_min_decomp((1, 3, 2))  # 1 -> 2 -> {3, 4}
        before = weight_via_leaves(t)
        after = weight_via_leaves(moved_up(t, 3))
        assert (before, after) == (1, 0)

    def test_reattaches_to_grandparent(self):
        assert moved_up(build_min_decomp((1, 3, 2)), 3).parent[3] == 1

    def test_leaf_under_root_cannot_move(self):
        # the root's parent 0 is no label, so the constructor refuses
        t = build_min_decomp((3, 2, 1))  # star at 1
        with pytest.raises(ValueError, match="parent of 4 must lie in 1..3, got 0"):
            moved_up(t, 4)

    def test_path_leaf_still_moves(self):
        # legal even when the result is no permutation's decomposition
        t = build_min_decomp((1, 2, 3))
        assert moved_up(t, 4).parent[4] == 2

    def test_drop_by_one_whenever_stem_is_preserved(self):
        for n in range(2, 7):
            for p in all_perms(n):
                t = build_min_decomp(p)
                kids = ref.children(t.parent)
                w = weight_via_leaves(t)
                for leaf in t.leaves():
                    parent = t.parent[leaf]
                    if parent == 1 or len(kids[parent]) < 2:
                        continue
                    assert weight_via_leaves(moved_up(t, leaf)) == w - 1, (p, leaf)

    def test_reverse_restores(self):
        t = build_min_decomp((2, 1, 4, 3))
        for leaf in t.leaves():
            parent = t.parent[leaf]
            if parent == 1:
                continue
            back = list(moved_up(t, leaf).parent)
            back[leaf] = parent
            assert MinDecompTree(back) == t
            assert weight_via_leaves(MinDecompTree(back)) == weight_via_leaves(t)


class TestSerialization:
    def test_distinct_permutations_distinct_parents(self):
        for n in range(1, 8):
            trees = {build_min_decomp(p).parent for p in all_perms(n)}
            assert len(trees) == math.factorial(n), n

    def test_rejects_bad_parent(self):
        with pytest.raises(ValueError, match="parent"):
            MinDecompTree((0, 0, 3))  # parent of 2 must be 1

    def test_keeps_only_the_parent_array(self):
        t = build_min_decomp((1, 3, 2))
        assert MinDecompTree.__slots__ == ("parent",)
        with pytest.raises(AttributeError):
            t.children = ()
