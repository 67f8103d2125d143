import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from maxmintrees.eulerian import _block_counts
from maxmintrees.perms import descent_count, extend
from maxmintrees.trees import build_max_weight_tree, subtree, weight_recursive
from maxmintrees.weights import (
    descents_and_weight,
    range_details,
    subtree_range,
    weight_accelerated,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def shuffled(n, seed):
    rng = random.Random(seed)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


class TestSubtreeRange:
    def test_range_of_global_min_covers_everything(self):
        ext = extend((2, 1, 3))
        r = subtree_range(ext, 2)  # value 1
        assert (r.left, r.right) == (1, 4)

    def test_range_of_value_three_in_213(self):
        ext = extend((2, 1, 3))
        r = subtree_range(ext, 3)
        assert {ext[k] for k in range(r.left, r.right + 1)} == {3, 4}

    def test_identity_middle(self):
        ext = extend((1, 2, 3))
        r = subtree_range(ext, 2)
        assert {ext[k] for k in range(r.left, r.right + 1)} == {2, 3, 4}

    def test_rejects_descent_position(self):
        with pytest.raises(ValueError, match="descent"):
            subtree_range(extend((2, 1, 3)), 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            subtree_range(extend((2, 1, 3)), 4)

    def test_matches_tree_subtrees_exhaustively(self):
        # binding contract: the range's value set is the subtree of sigma_i
        for n in range(1, 9):
            for p in all_perms(n):
                ext = extend(p)
                t = build_max_weight_tree(p)
                for i in range(1, n + 1):
                    if ext[i] > ext[i + 1]:
                        continue
                    r = subtree_range(ext, i)
                    got = frozenset(ext[k] for k in range(r.left, r.right + 1))
                    assert got == subtree(t, ext[i]), (p, i)

    def test_ranges_are_laminar(self):
        # ranges of distinct non-descents nest or are disjoint
        for n in range(1, 8):
            for p in all_perms(n):
                ext = extend(p)
                ranges = [
                    subtree_range(ext, i)
                    for i in range(1, n + 1)
                    if ext[i] < ext[i + 1]
                ]
                for a, b in itertools.combinations(ranges, 2):
                    disjoint = a.right < b.left or b.right < a.left
                    nested = (
                        (a.left <= b.left and b.right <= a.right)
                        or (b.left <= a.left and a.right <= b.right)
                    )
                    assert disjoint or nested, (p, a, b)


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


def zigzag(n, run=45):
    """1..n in runs of ``run`` letters, every second run reversed."""
    word = []
    for run_no, start in enumerate(range(1, n + 1, run)):
        part = list(range(start, min(n + 1, start + run)))
        word += part[::-1] if run_no % 2 else part
    return tuple(word)


def scanned_descents_and_weight(p):
    """(descents, weight) from subtree_range and a direct descent count."""
    n = len(p)
    ext = extend(p)
    # D[k]: descent positions of the extended word in 1..k
    D = list(itertools.accumulate(
        (ext[k] > ext[k + 1] for k in range(1, n + 2)), initial=0
    ))
    total = 0
    for i in range(1, n + 1):
        if ext[i] < ext[i + 1]:
            r = subtree_range(ext, i)
            total += D[r.right] - D[r.left - 1]
    return descent_count(p), total - n


class TestKernel:
    def test_exhaustive_against_subtree_ranges(self):
        for n in range(1, 9):
            for p in all_perms(n):
                assert descents_and_weight(p) == scanned_descents_and_weight(p), p

    def test_long_scans_against_subtree_ranges(self):
        # the increasing, decreasing and zigzag words make the inline j, m,
        # M and L scans run long
        rng = random.Random(3)
        words = [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        words += [tuple(range(1, 2001)), tuple(range(2000, 0, -1)), zigzag(2000)]
        for p in words:
            assert descents_and_weight(p) == scanned_descents_and_weight(p), p[:20]

    def test_block_histogram_matches_a_plain_loop(self):
        for n in range(1, 8):
            for first in range(1, n + 1):
                expected = {}
                for p in all_perms(n):
                    if p[0] == first:
                        key = descents_and_weight(p)
                        expected[key] = expected.get(key, 0) + 1
                counts = _block_counts((n, first))
                assert counts == expected, (n, first)
                assert sum(counts.values()) == math.factorial(n - 1), (n, first)


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

    def test_rows_match_the_scanning_oracle(self):
        n = 2000
        rng = random.Random(2)
        words = [p for k in range(1, 8) for p in all_perms(k)]
        words += [shuffled(rng.randint(1, 400), seed) for seed in range(300)]
        # the increasing word is the one on which scanning every range is
        # quadratic
        words += [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), zigzag(n)]
        for p in words:
            ext = extend(p)
            rows = iter(range_details(p))
            for i in range(1, len(p) + 1):
                if ext[i] > ext[i + 1]:
                    continue
                row = next(rows)
                r = subtree_range(ext, i)
                assert row["position"] == i and row["value"] == ext[i], (p, i)
                assert row["range"] == [r.left, r.right], (p, i)
                direct = sum(ext[k] > ext[k + 1] for k in range(r.left, r.right + 1))
                assert row["descents"] == direct, (p, i)
            assert next(rows, None) is None, p
