import random

from hypothesis import given, settings, strategies as st

from maxmintrees.perms import extend
from maxmintrees.trees import build_max_weight_tree
from maxmintrees.weights import descents_and_weight, range_details, weight_accelerated
from oracles import all_subtrees, descent_count, subtree_rows
from sample_words import shuffled, zigzag


def range_values(p, value):
    """The values inside the range_details row of ``value``."""
    ext = extend(p)
    (lo, hi), = [r["range"] for r in range_details(p) if r["value"] == value]
    return {ext[k] for k in range(lo, hi + 1)}


class TestSubtreeRange:
    def test_range_of_global_min_covers_everything(self):
        (row,) = [r for r in range_details((2, 1, 3)) if r["value"] == 1]
        assert row["position"] == 2 and row["range"] == [1, 4]

    def test_range_of_value_three_in_213(self):
        assert range_values((2, 1, 3), 3) == {3, 4}

    def test_identity_middle(self):
        assert range_values((1, 2, 3), 2) == {2, 3, 4}


class TestWeightValues:
    def test_identity(self):
        for n in range(1, 9):
            assert weight_accelerated(tuple(range(1, n + 1))) == 0

    def test_132(self):
        assert weight_accelerated((1, 3, 2)) == 1

    def test_213(self):
        assert weight_accelerated((2, 1, 3)) == 0

    def test_reversal(self):
        for n in range(1, 9):
            assert weight_accelerated(tuple(range(n, 0, -1))) == 0

    def test_descents_and_weight_pairs(self):
        assert descents_and_weight((1, 3, 2)) == (1, 1)
        assert descents_and_weight((3, 2, 1)) == (2, 0)


def ranged_descents_and_weight(p):
    """(descents, weight) from the range_details rows."""
    return descent_count(p), sum(r["descents"] for r in range_details(p)) - len(p)


class TestKernel:
    # on S_1..S_8 the walk's "weight routes" and "descents" checks hold the
    # kernel to the subtrees of the max-weight tree

    def test_long_scans_against_subtree_ranges(self):
        # the increasing, decreasing and zigzag words make the kernel's right
        # scan for j and m and its left walk to max(M, L) run long
        rng = random.Random(3)
        words = [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        words += [tuple(range(1, 2001)), tuple(range(2000, 0, -1)), zigzag(2000)]
        for p in words:
            assert descents_and_weight(p) == ranged_descents_and_weight(p), p[:20]


class TestAgreement:
    def test_random_medium(self):
        for seed in range(50):
            p = shuffled(200, seed)
            assert weight_accelerated(p) == descents_and_weight(p)[1]

    def test_large_words_match_scanning(self):
        for n in (1500, 2047, 2048, 2049, 3000):
            for seed in range(3):
                p = shuffled(n, seed)
                w = descents_and_weight(p)[1]
                assert weight_accelerated(p) == w
        # at full length the scanning oracle stays fast on the random and
        # the falling word; the rising word, on which it is quadratic, has
        # weight 0
        n = 100_000
        for p in (shuffled(n, 0), tuple(range(n, 0, -1))):
            w = descents_and_weight(p)[1]
            assert weight_accelerated(p) == w, p[:20]
        assert weight_accelerated(tuple(range(1, n + 1))) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 26))))
    def test_property_agreement(self, values):
        p = tuple(values)
        assert weight_accelerated(p) == descents_and_weight(p)[1]


class TestRangeDetails:
    def test_213_has_two_rows(self):
        details = range_details((2, 1, 3))
        assert len(details) == 2
        total = sum(r["descents"] for r in details)
        assert total - 3 == 0

    def test_rows_sum_to_weight(self):
        for seed in range(5):
            p = shuffled(40, seed)
            details = range_details(p)
            assert sum(r["descents"] for r in details) - 40 == descents_and_weight(p)[1]

    def test_rows_match_tree_subtrees(self):
        n = 2000
        rng = random.Random(2)
        words = [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        # the increasing word is the one with the largest subtrees
        words += [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), zigzag(n)]
        for p in words:
            subtrees = all_subtrees(build_max_weight_tree(p))
            assert range_details(p) == subtree_rows(p, subtrees), p[:20]
