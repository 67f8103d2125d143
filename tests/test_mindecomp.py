import itertools
import math

from hypothesis import given, settings, strategies as st

import children_reference as ref
from maxmintrees.mindecomp import _leaf_counts, build_min_decomp, leaves, weight_via_leaves
from maxmintrees.perms import descent_values
from maxmintrees.trees import build_max_weight_tree, subtree, weight_recursive

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def stem_and_leaves(parent):
    tips = leaves(parent)
    return frozenset(range(1, len(parent))) - tips, tips


def moved_up(parent, leaf):
    """The parent tuple with ``leaf`` reattached to its grandparent."""
    moved = list(parent)
    moved[leaf] = parent[parent[leaf]]
    return tuple(moved)


# every valid parent array on 1..40 labels: parent[v] anywhere in 1..v-1,
# most of them built by no permutation
parent_arrays = st.integers(1, 40).flatmap(
    lambda m: st.tuples(*(st.integers(1, v - 1) for v in range(2, m + 1)))
).map(lambda tail: (0, 0) + tail)


class TestBuild:
    def test_15_example_edges(self):
        kids = ref.children(build_min_decomp(EXAMPLE_15))
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
            parent = build_min_decomp(tuple(range(1, n + 1)))
            assert parent == (0, 0) + tuple(range(1, n + 1))

    def test_reversal_is_star(self):
        for n in range(2, 8):
            parent = build_min_decomp(tuple(range(n, 0, -1)))
            assert parent == (0, 0) + (1,) * n

    def test_parents_always_smaller(self):
        for n in range(1, 8):
            for p in all_perms(n):
                parent = build_min_decomp(p)
                assert type(parent) is tuple  # hashable, as the sets below need
                assert parent[:2] == (0, 0), p
                assert all(1 <= parent[v] < v for v in range(2, n + 2)), p


class TestStemAndLeaves:
    def test_identity(self):
        n = 5
        stem, tips = stem_and_leaves(build_min_decomp(tuple(range(1, n + 1))))
        assert stem == frozenset(range(1, n + 1))
        assert tips == frozenset({n + 1})

    def test_15_example(self):
        assert leaves(build_min_decomp(EXAMPLE_15)) == {15, 13, 10, 11, 6, 8, 16}

    def test_reversal(self):
        n = 6
        stem, tips = stem_and_leaves(build_min_decomp(tuple(range(n, 0, -1))))
        assert stem == frozenset({1})
        assert tips == frozenset(range(2, n + 2))

    def test_leaves_are_descent_values_plus_top(self):
        for n in range(1, 8):
            for p in all_perms(n):
                assert leaves(build_min_decomp(p)) == descent_values(p) | {n + 1}, p


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
                kids = ref.children(build_min_decomp(p))
                mx = build_max_weight_tree(p)
                for v in range(1, n + 2):
                    assert ref.descendants(kids, v) | {v} == subtree(mx, v), (p, v)


class TestParentPass:
    @settings(max_examples=200, deadline=None)
    @given(parent_arrays)
    def test_matches_children_lists(self, parent):
        kids = ref.children(parent)
        assert leaves(parent) == ref.leaves(kids)
        assert _leaf_counts(parent)[1:] == ref.leaf_counts(kids)[1:]
        assert weight_via_leaves(parent) == ref.weight(kids)


class TestMoveUp:
    def test_drops_weight_by_one(self):
        t = build_min_decomp((1, 3, 2))  # 1 -> 2 -> {3, 4}
        before = weight_via_leaves(t)
        after = weight_via_leaves(moved_up(t, 3))
        assert (before, after) == (1, 0)

    def test_reattaches_to_grandparent(self):
        assert moved_up(build_min_decomp((1, 3, 2)), 3)[3] == 1

    def test_path_leaf_still_moves(self):
        # legal even when the result is no permutation's decomposition
        t = build_min_decomp((1, 2, 3))
        assert moved_up(t, 4)[4] == 2

    def test_drop_by_one_whenever_stem_is_preserved(self):
        for n in range(2, 7):
            for p in all_perms(n):
                t = build_min_decomp(p)
                kids = ref.children(t)
                w = weight_via_leaves(t)
                for leaf in leaves(t):
                    parent = t[leaf]
                    if parent == 1 or len(kids[parent]) < 2:
                        continue
                    assert weight_via_leaves(moved_up(t, leaf)) == w - 1, (p, leaf)

    def test_reverse_restores(self):
        t = build_min_decomp((2, 1, 4, 3))
        for leaf in leaves(t):
            parent = t[leaf]
            if parent == 1:
                continue
            back = list(moved_up(t, leaf))
            back[leaf] = parent
            assert tuple(back) == t
            assert weight_via_leaves(back) == weight_via_leaves(t)


class TestSerialization:
    def test_distinct_permutations_distinct_parents(self):
        for n in range(1, 8):
            trees = {build_min_decomp(p) for p in all_perms(n)}
            assert len(trees) == math.factorial(n), n
