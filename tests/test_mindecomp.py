import itertools
import math

import pytest

from maxmintrees.mindecomp import (
    MinDecompTree,
    build_min_decomp,
    classify,
    move_up,
    weight_via_leaves,
)
from maxmintrees.perms import descent_values
from maxmintrees.trees import build_max_weight_tree, subtree, weight_recursive

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


class TestBuild:
    def test_15_example_edges(self):
        t = build_min_decomp(EXAMPLE_15)
        children = {v: t.children[v] for v in range(1, 17) if t.children[v]}
        assert children == {
            1: (2,),
            2: (3, 4, 12, 14),
            3: (8,),
            4: (5, 6, 13),
            5: (7, 9),
            7: (11,),
            9: (10,),
            12: (15,),
            14: (16,),
        }

    def test_identity_is_path(self):
        for n in range(1, 8):
            t = build_min_decomp(tuple(range(1, n + 1)))
            assert t.parent == (0, 0) + tuple(range(1, n + 1))

    def test_reversal_is_star(self):
        for n in range(2, 8):
            t = build_min_decomp(tuple(range(n, 0, -1)))
            assert t.children[1] == tuple(range(2, n + 2))

    def test_parents_always_smaller(self):
        for n in range(1, 8):
            for p in all_perms(n):
                t = build_min_decomp(p)
                assert all(t.parent[v] < v for v in range(2, n + 2))


class TestClassify:
    def test_identity(self):
        n = 5
        stem, leaves = classify(build_min_decomp(tuple(range(1, n + 1))))
        assert stem == frozenset(range(1, n + 1))
        assert leaves == frozenset({n + 1})

    def test_15_example(self):
        _, leaves = classify(build_min_decomp(EXAMPLE_15))
        assert leaves == {15, 13, 10, 11, 6, 8, 16}

    def test_reversal(self):
        n = 6
        stem, leaves = classify(build_min_decomp(tuple(range(n, 0, -1))))
        assert stem == frozenset({1})
        assert leaves == frozenset(range(2, n + 2))

    def test_leaves_are_descent_values_plus_top(self):
        for n in range(1, 8):
            for p in all_perms(n):
                _, leaves = classify(build_min_decomp(p))
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
                md = build_min_decomp(p)
                mx = build_max_weight_tree(p)
                for v in range(1, n + 2):
                    assert md.descendants(v) | {v} == subtree(mx, v), (p, v)


class TestMoveUp:
    def test_drops_weight_by_one(self):
        t = build_min_decomp((1, 3, 2))  # 1 -> 2 -> {3, 4}
        before = weight_via_leaves(t)
        after = weight_via_leaves(move_up(t, 3))
        assert (before, after) == (1, 0)

    def test_reattaches_to_grandparent(self):
        t = build_min_decomp((1, 3, 2))
        moved = move_up(t, 3)
        assert moved.parent[3] == 1

    def test_original_untouched(self):
        t = build_min_decomp((1, 3, 2))
        move_up(t, 3)
        assert t.parent[3] == 2

    def test_rejects_non_leaf(self):
        t = build_min_decomp((1, 3, 2))
        with pytest.raises(ValueError, match="not a leaf"):
            move_up(t, 2)

    def test_rejects_leaf_under_root(self):
        t = build_min_decomp((3, 2, 1))  # star at 1
        with pytest.raises(ValueError, match="root"):
            move_up(t, 4)

    def test_path_leaf_still_moves(self):
        # legal even when the result is no permutation's decomposition
        t = build_min_decomp((1, 2, 3))
        moved = move_up(t, 4)
        assert moved.parent[4] == 2

    def test_drop_by_one_whenever_stem_is_preserved(self):
        for n in range(2, 7):
            for p in all_perms(n):
                t = build_min_decomp(p)
                w = weight_via_leaves(t)
                for leaf in t.leaves():
                    parent = t.parent[leaf]
                    if parent == t.root or len(t.children[parent]) < 2:
                        continue
                    assert weight_via_leaves(move_up(t, leaf)) == w - 1, (p, leaf)

    def test_reverse_restores(self):
        t = build_min_decomp((2, 1, 4, 3))
        for leaf in t.leaves():
            parent = t.parent[leaf]
            if parent == t.root:
                continue
            moved = move_up(t, leaf)
            back = list(moved.parent)
            back[leaf] = parent
            assert MinDecompTree(back) == t
            assert weight_via_leaves(MinDecompTree(back)) == weight_via_leaves(t)


class TestSerialization:
    def test_json_shape(self):
        t = build_min_decomp((1, 3, 2))
        assert t.json_dict() == {
            "nodes": [1, 2, 3, 4],
            "edges": [[1, 2], [2, 3], [2, 4]],
            "root": 1,
            "leaves": [3, 4],
        }

    def test_distinct_permutations_distinct_parents(self):
        for n in range(1, 8):
            trees = {build_min_decomp(p).parent for p in all_perms(n)}
            assert len(trees) == math.factorial(n), n

    def test_rejects_bad_parent(self):
        with pytest.raises(ValueError, match="parent"):
            MinDecompTree((0, 0, 3))  # parent of 2 must be 1
