import itertools
import random

from hypothesis import given, settings, strategies as st

from maxmintrees.perms import descent_count, extend
from maxmintrees.trees import (
    build_max_weight_tree,
    decompose_blocks,
    subtree,
    weight_recursive,
)
from maxmintrees.weights import descents_and_weight, range_details, weight_accelerated
from sample_words import all_perms, shuffled, zigzag


def subtree_rows(p):
    """range_details rows built from the tree definition: the positions of
    subtree(build_max_weight_tree(p), sigma_i) for every non-descent i."""
    ext = extend(p)
    where = {v: k for k, v in enumerate(ext)}
    t = build_max_weight_tree(p)
    rows = []
    for i in range(1, len(p) + 1):
        if ext[i] > ext[i + 1]:
            continue
        spots = sorted(where[v] for v in subtree(t, ext[i]))
        lo, hi = spots[0], spots[-1]
        assert hi - lo + 1 == len(spots), (p, i)  # a subtree fills a range
        rows.append({
            "position": i,
            "value": ext[i],
            "range": [lo, hi],
            "descents": sum(ext[k] > ext[k + 1] for k in range(lo, hi + 1)),
        })
    return rows


def block_segments(p):
    """Every segment of the recursive block split of positions 1..n+1."""
    ext = extend(p)
    segments, stack = [], [(1, len(p) + 1)]
    while stack:
        a, b = stack.pop()
        segments.append((a, b))
        if a < b:
            stack += decompose_blocks(ext, (a, b))[1]
    return sorted(segments)


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

    def test_matches_tree_subtrees_exhaustively(self):
        # binding contract: the range's value set is the subtree of sigma_i
        for n in range(1, 9):
            for p in all_perms(n):
                assert range_details(p) == subtree_rows(p), p

    def test_ranges_are_laminar(self):
        # ranges of distinct non-descents nest or are disjoint
        for n in range(1, 8):
            for p in all_perms(n):
                ranges = [r["range"] for r in range_details(p)]
                for (a, b), (c, d) in itertools.combinations(ranges, 2):
                    disjoint = b < c or d < a
                    nested = (a <= c and d <= b) or (c <= a and b <= d)
                    assert disjoint or nested, (p, (a, b), (c, d))

    def test_ranges_and_descents_are_the_block_segments(self):
        # the split's segments are the non-descent ranges plus one
        # single-letter segment per descent; n+1 is always a descent
        for n in range(1, 8):
            for p in all_perms(n):
                ext = extend(p)
                expected = [tuple(r["range"]) for r in range_details(p)]
                expected += [(i, i) for i in range(1, n + 2) if ext[i] > ext[i + 1]]
                assert block_segments(p) == sorted(expected), p


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


def tree_descents_and_weight(p):
    """(descents, weight) from the subtrees of the max-weight tree."""
    return descent_count(p), sum(r["descents"] for r in subtree_rows(p)) - len(p)


def ranged_descents_and_weight(p):
    """(descents, weight) from the range_details rows."""
    return descent_count(p), sum(r["descents"] for r in range_details(p)) - len(p)


class TestKernel:
    def test_exhaustive_against_subtree_ranges(self):
        for n in range(1, 9):
            for p in all_perms(n):
                assert descents_and_weight(p) == tree_descents_and_weight(p), p

    def test_long_scans_against_subtree_ranges(self):
        # the increasing, decreasing and zigzag words make the kernel's right
        # scan for j and m and its left walk to max(M, L) run long
        rng = random.Random(3)
        words = [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        words += [tuple(range(1, 2001)), tuple(range(2000, 0, -1)), zigzag(2000)]
        for p in words:
            assert descents_and_weight(p) == ranged_descents_and_weight(p), p[:20]


class TestAgreement:
    def test_exhaustive_small(self):
        for n in range(1, 8):
            for p in all_perms(n):
                wa = weight_accelerated(p)
                assert wa == descents_and_weight(p)[1], p
                assert wa == weight_recursive(build_max_weight_tree(p)), p

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
        words = [p for k in range(1, 8) for p in all_perms(k)]
        words += [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        # the increasing word is the one with the largest subtrees
        words += [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), zigzag(n)]
        for p in words:
            assert range_details(p) == subtree_rows(p), p[:20]
