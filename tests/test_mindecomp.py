from hypothesis import given, settings, strategies as st

from maxmintrees.mindecomp import _leaf_counts, build_min_decomp, leaves, weight_via_leaves
from oracles import childless, children, leaf_counts, moved_up, weight_via_children
from sample_words import EXAMPLE_15


def stem_and_leaves(parent):
    tips = leaves(parent)
    return frozenset(range(1, len(parent))) - tips, tips


# every valid parent array on 1..40 labels: parent[v] anywhere in 1..v-1,
# most of them built by no permutation
parent_arrays = st.integers(1, 40).flatmap(
    lambda m: st.tuples(*(st.integers(1, v - 1) for v in range(2, m + 1)))
).map(lambda tail: (0, 0) + tail)


class TestBuild:
    def test_15_example_edges(self):
        kids = children(build_min_decomp(EXAMPLE_15))
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


class TestWeightViaLeaves:
    def test_identity(self):
        for n in range(1, 8):
            assert weight_via_leaves(build_min_decomp(tuple(range(1, n + 1)))) == 0

    def test_132(self):
        assert weight_via_leaves(build_min_decomp((1, 3, 2))) == 1

    def test_reversal(self):
        for n in range(2, 8):
            assert weight_via_leaves(build_min_decomp(tuple(range(n, 0, -1)))) == 0


class TestParentPass:
    @settings(max_examples=200, deadline=None)
    @given(parent_arrays)
    def test_matches_children_lists(self, parent):
        kids = children(parent)
        assert leaves(parent) == childless(kids)
        assert _leaf_counts(parent)[1:] == leaf_counts(kids)[1:]
        assert weight_via_leaves(parent) == weight_via_children(kids)


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

