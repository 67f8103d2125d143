import itertools
import math
from collections import Counter

import pytest

import maxmintrees.bijection as bijection
from maxmintrees.bijection import (
    bijection_report,
    enumerate_stems,
    stable_region,
    stem_count,
    stem_report,
    stem_to_partition,
    target_weight,
)
from maxmintrees.cli import main
from maxmintrees.eulerian import q_eulerian, wd_series
from maxmintrees.mindecomp import build_min_decomp, leaves
from maxmintrees.partitions import enumerate_partitions, t_nk
from maxmintrees.weights import descents_and_weight, weight_accelerated
from oracles import descent_count


class TestRegions:
    def test_stable(self):
        assert stable_region(9, 5)
        assert stable_region(5, 2)  # boundary: 2d = n-1
        assert not stable_region(4, 1)

    def test_target_weight(self):
        assert target_weight(9, 5) == 12
        assert target_weight(5, 2) == 2
        assert target_weight(3, 1) == 0


class TestCounts:
    def test_5_2_2(self):
        assert q_eulerian(5)[2, 2] == 11

    def test_3_1_1(self):
        assert q_eulerian(3)[1, 1] == 1

    def test_identity_class(self):
        for n in range(1, 7):
            assert q_eulerian(n)[0, 0] == 1

    def test_against_direct_enumeration(self):
        n, d, w = 6, 3, 4
        direct = sum(
            1
            for p in itertools.permutations(range(1, n + 1))
            if descent_count(p) == d and weight_accelerated(p) == w
        )
        assert q_eulerian(n)[d, w] == direct == 16


class TestVerifyBijection:
    def test_5_2(self):
        assert bijection_report(5, 2)["pass"]  # 11 = T(4, 2)

    def test_3_1(self):
        assert bijection_report(3, 1)["pass"]  # 3 = T(2, 1)

    def test_6_3(self):
        assert bijection_report(6, 3)["pass"]  # 16 = T(5, 3)

    def test_fails_outside_region(self, monkeypatch):
        # (4, 1) sits outside 2d >= n-1, where the counts differ (7 vs 6);
        # both reports refuse it before enumerating anything
        assert q_eulerian(4)[1, target_weight(4, 1)] == 7
        assert t_nk(3, 1) == 6

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated outside the region")

        monkeypatch.setattr(bijection, "q_eulerian", refuse)
        monkeypatch.setattr(bijection, "enumerate_stems", refuse)
        monkeypatch.setattr(bijection, "t_nk", refuse)
        for report in (bijection_report, stem_report):
            with pytest.raises(ValueError, match=r"^n=4, d=1 lies outside the region 2d >= n-1$"):
                report(4, 1)

    def test_stable_region_up_to_8(self):
        for n in range(2, 9):
            for d in range(1, n):
                if stable_region(n, d):
                    assert bijection_report(n, d)["pass"], (n, d)

    def test_d_range_checked(self):
        with pytest.raises(ValueError, match="d=0 outside 1..3"):
            bijection_report(4, 0)
        # below n = 2 the range 1..n-1 is empty: n itself is refused
        with pytest.raises(ValueError, match="^n must be at least 2, got 0$"):
            bijection_report(0, 0)
        with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
            stem_report(1, 1)

    def test_stem_total_must_agree_too(self, monkeypatch):
        original = bijection.stem_report

        def off_by_one(n, d):
            r = original(n, d)
            return {**r, "total": r["total"] + 1}

        monkeypatch.setattr(bijection, "stem_report", off_by_one)
        r = bijection_report(5, 2)
        assert r["stem_total"] == 12 and r["brute_count"] == r["t_value"] == 11
        assert not r["pass"]


class TestStems:
    def test_9_5_is_the_seven_stems(self):
        assert enumerate_stems(9, 5) == [
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 3, 6),
            (1, 2, 3, 7),
            (1, 2, 4, 5),
            (1, 2, 4, 6),
            (1, 3, 4, 5),
        ]

    def test_single_nondescent(self):
        for n in range(2, 8):
            assert enumerate_stems(n, n - 1) == [(1,)]
        with pytest.raises(ValueError, match="^need at least one non-descent: n=3, d=3$"):
            enumerate_stems(3, 3)

    def test_4_2(self):
        assert enumerate_stems(4, 2) == [(1, 2), (1, 3)]

    def test_admissibility_enforced(self):
        for s in enumerate_stems(8, 4):
            assert len(s) == 4 and s[0] == 1 and s[-1] <= 8
            assert all(a < b for a, b in zip(s, s[1:]))
            assert sum(x - i for i, x in enumerate(s, start=1)) <= 8 - 4 - 1


class TestStemCounts:
    def test_9_5_counts(self):
        counts = [stem_count(s, 9, 5) for s in enumerate_stems(9, 5)]
        assert counts == [56, 21, 6, 1, 6, 1, 1]
        assert sum(counts) == 92

    def test_explicit_cells(self):
        assert stem_count((1, 2, 3, 4), 9, 5) == 56
        assert stem_count((1, 2, 3, 5), 9, 5) == 21
        assert stem_count((1, 3, 4, 5), 9, 5) == 1


class TestStemToPartition:
    def test_9_5_images(self):
        images = [stem_to_partition(s, 9) for s in enumerate_stems(9, 5)]
        assert images == [
            (1, 1, 1, 1, 1, 1, 1, 1),
            (2, 1, 1, 1, 1, 1, 1),
            (3, 1, 1, 1, 1, 1),
            (4, 1, 1, 1, 1),
            (2, 2, 1, 1, 1, 1),
            (3, 2, 1, 1, 1),
            (2, 2, 2, 1, 1),
        ]

    def test_part_count_matches_count(self):
        for n, d in ((9, 5), (8, 4), (7, 4), (5, 2)):
            for s in enumerate_stems(n, d):
                lam = stem_to_partition(s, n)
                assert sum(lam) == n - 1
                assert math.comb(len(lam), d) == stem_count(s, n, d)

    def test_boundary_drops_a_one(self):
        # at 2d = n-1 the parts above 1 can reach n-1 without the 1 of x_1;
        # the image is still a partition of n-1
        assert stem_to_partition((1, 2, 5), 5) == (3, 1)
        assert stem_to_partition((1, 3, 4), 5) == (2, 2)

    def test_images_cover_high_part_partitions(self):
        # stems map bijectively onto partitions of n-1 with >= d parts
        for n, d in ((9, 5), (6, 3), (5, 2)):
            images = {stem_to_partition(s, n) for s in enumerate_stems(n, d)}
            expected = {
                lam for lam in enumerate_partitions(n - 1) if len(lam) >= d
            }
            assert images == expected


class TestStemTotals:
    def test_9_5(self):
        assert stem_report(9, 5)["ok"]

    def test_3_1(self):
        assert stem_report(3, 1)["ok"]

    def test_diagonal(self):
        for n in range(2, 9):
            assert stem_report(n, n - 1)["ok"]

    def test_region_sweep(self):
        for n in range(2, 10):
            for d in range(1, n):
                if stable_region(n, d):
                    assert stem_report(n, d)["ok"], (n, d)


class TestThreeWayAgreement:
    def test_stable_region_up_to_8(self):
        for n in range(2, 9):
            for d in range(1, n):
                if not stable_region(n, d):
                    continue
                r = bijection_report(n, d)
                assert r["pass"], r
                assert r["brute_count"] == r["stem_total"] == r["t_value"]

    def test_report_fields(self):
        r = bijection_report(5, 2)
        assert r == {
            "n": 5,
            "d": 2,
            "weight": 2,
            "brute_count": 11,
            "stem_total": 11,
            "t_value": 11,
            "pass": True,
        }


def test_report_fails_when_the_stem_map_is_not_injective(monkeypatch):
    # every stem to the all-ones partition: counts and totals stay right,
    # but the map stops being injective once there are two stems
    monkeypatch.setattr(bijection, "stem_to_partition", lambda s, n: (1,) * (n - 1))
    stems = stem_report(7, 4)
    assert len(stems["stems"]) > 1 and stems["total"] == stems["t_value"]
    assert not stems["ok"]
    r = bijection_report(7, 4)
    assert r["brute_count"] == r["stem_total"] == r["t_value"]
    assert r["pass"] is False


SWAPPED = {(1, 2, 3, 4): (1, 2, 3, 5), (1, 2, 3, 5): (1, 2, 3, 4)}


@pytest.mark.parametrize(
    "fake, total",
    [
        # one tree too many on one stem: the total is off as well
        (lambda count, s, n, d: count(s, n, d) + ((s, n, d) == ((1, 2, 3, 4), 9, 5)), 93),
        # two stems swap counts: the total, T(n-1, d) and injectivity all
        # still hold, and only C(parts, d) == count catches it
        (lambda count, s, n, d: count(SWAPPED.get(s, s), n, d), 92),
    ],
    ids=["one-too-many", "swapped"],
)
def test_report_fails_when_a_stem_count_breaks_its_identity(monkeypatch, capsys, fake, total):
    # the verdict says so with exit 1, not with a traceback
    original = bijection.stem_count
    monkeypatch.setattr(bijection, "stem_count", lambda s, n, d: fake(original, s, n, d))
    stems = stem_report(9, 5)
    assert stems["total"] == total and stems["t_value"] == 92
    assert stems["ok"] is False
    assert main(["verify", "stems", "--n", "9", "--d", "5"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "FAILED"
    assert err == ""


def test_each_stem_carries_its_count_of_permutations():
    # the stem argument held against brute force stem by stem, not in total:
    # group the target-weight permutations by the stem of their minimum
    # decomposition, which must be a path, one of the enumerated stems, and
    # carry exactly stem_count of them
    pairs = 0
    for n in range(2, 9):
        by_stem = {d: Counter() for d in range(1, n) if stable_region(n, d)}
        for p in itertools.permutations(range(1, n + 1)):
            d, w = descents_and_weight(p)
            if d in by_stem and w == target_weight(n, d):
                parent = build_min_decomp(p)
                tips = leaves(parent)
                stem = tuple(v for v in range(1, n + 2) if v not in tips)
                assert all(parent[b] == a for a, b in zip(stem, stem[1:])), (p, stem)
                by_stem[d][stem] += 1
        for d, counts in by_stem.items():
            stems = enumerate_stems(n, d)
            assert set(counts) <= set(stems), (n, d)
            assert counts == {s: stem_count(s, n, d) for s in stems}, (n, d)
            pairs += 1
    assert pairs == 19


def test_theorem_in_series_form():
    # a_k(W_d) is the count bijection_report reads at (d+k+1, d), and it
    # equals T(d+k, d) exactly when k <= d; at k = d+1 the bound is sharp
    sharp = {}
    for d in range(1, 4):
        series = wd_series(d, 8 - d)
        for k in range(8 - d):
            if k <= d:
                assert series[k] == bijection_report(d + k + 1, d)["brute_count"], (d, k)
            assert (series[k] == t_nk(d + k, d)) == (k <= d), (d, k)
            if k == d + 1:
                sharp[d] = (series[k], t_nk(d + k, d))
    assert sharp == {1: (7, 6), 2: (31, 24), 3: (112, 91)}
