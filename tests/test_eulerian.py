import concurrent.futures
import math
import os

import pytest

import maxmintrees.eulerian as eulerian
from maxmintrees.eulerian import (
    LimitExceeded,
    clear_cache,
    eulerian_polynomial,
    maxwt,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from maxmintrees.partitions import t_nk

from expected_values import E3, E4, E5, E6, q_coefficients


def at_q_one(poly):
    """Coefficient list by x-degree after setting q = 1."""
    return [sum(q_coefficients(poly, d).values()) for d in range(max(x for x, _ in poly) + 1)]


def record_pools(monkeypatch):
    """Let q_eulerian build real pools, and list the worker count of each."""
    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return built


def refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


# ---------------------------------------------------------------- oracles

def eulerian_recurrence(n):
    """Classical Eulerian-number recurrence, independent of any enumeration."""
    row = [1]
    for m in range(2, n + 1):
        prev = row
        row = [0] * m
        for d in range(m):
            row[d] = (d + 1) * prev[d] if d < len(prev) else 0
            if d >= 1:
                row[d] += (m - d) * prev[d - 1]
    return row


class TestMaxwt:
    def test_no_descents(self):
        for n in range(1, 10):
            assert maxwt(n, 0) == 0

    def test_known_values(self):
        assert maxwt(6, 2) == 6
        assert maxwt(5, 2) == 4

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            maxwt(4, 4)


class TestEulerianPolynomial:
    def test_order_four(self):
        assert eulerian_polynomial(4) == [1, 11, 11, 1]

    def test_order_one(self):
        assert eulerian_polynomial(1) == [1]

    def test_order_three(self):
        assert eulerian_polynomial(3) == [1, 4, 1]

    def test_matches_recurrence(self):
        for n in range(1, 8):
            assert eulerian_polynomial(n) == eulerian_recurrence(n)

    def test_limit(self):
        # the recurrence enumerates nothing: only the size of its numbers
        # bounds the order
        assert sum(eulerian_polynomial(30)) == math.factorial(30)
        assert len(eulerian_polynomial(1000)) == 1000
        with pytest.raises(LimitExceeded, match="limit 1000"):
            eulerian_polynomial(1001)
        with pytest.raises(ValueError):
            eulerian_polynomial(0)


class TestQEulerian:
    def test_order_three(self):
        assert q_eulerian(3) == E3

    def test_order_four_x1(self):
        assert q_coefficients(q_eulerian(4), 1) == {2: 1, 1: 3, 0: 7}

    def test_orders_three_to_six(self):
        for n, expected in ((3, E3), (4, E4), (5, E5), (6, E6)):
            assert q_eulerian(n) == expected, n

    def test_q_one_matches_eulerian(self):
        # orders 8 and 9 run on the process pool wherever two CPUs are usable
        for n in range(1, 10):
            assert at_q_one(q_eulerian(n)) == eulerian_polynomial(n)

    def test_coefficient_sum_is_factorial(self):
        for n in range(1, 10):
            assert sum(q_eulerian(n).values()) == math.factorial(n)

    def test_extreme_x_degrees(self):
        for n in range(2, 8):
            poly = q_eulerian(n)
            assert q_coefficients(poly, 0) == {0: 1}
            assert q_coefficients(poly, n - 1) == {0: 1}

    def test_top_q_degree_is_maxwt(self):
        for n in range(3, 8):
            poly = q_eulerian(n)
            for d in range(1, n - 1):
                assert max(q_coefficients(poly, d)) == maxwt(n, d), (n, d)

    def test_symmetry_at_q_one(self):
        for n in range(2, 8):
            coeffs = at_q_one(q_eulerian(n))
            assert coeffs == coeffs[::-1]

    def test_pool_result_equals_in_process_result(self, monkeypatch):
        reference = dict(q_eulerian(6))
        built = record_pools(monkeypatch)
        monkeypatch.setattr(eulerian, "_POOL_MIN_N", 5)
        monkeypatch.setattr(eulerian, "_usable_cpus", lambda: 2)
        clear_cache()
        try:
            assert q_eulerian(6) == reference
        finally:
            clear_cache()
        assert built == [2]

    def test_pool_starts_at_order_8(self, monkeypatch):
        built = record_pools(monkeypatch)
        monkeypatch.setattr(eulerian, "_usable_cpus", lambda: 2)
        clear_cache()
        try:
            q_eulerian(7)
            assert built == []
            q_eulerian(8)
        finally:
            clear_cache()
        assert built == [2]

    def test_one_cpu_never_builds_a_pool(self, monkeypatch):
        refuse_pools(monkeypatch)
        monkeypatch.setattr(eulerian, "_POOL_MIN_N", 5)
        monkeypatch.setattr(eulerian, "_usable_cpus", lambda: 1)
        clear_cache()
        try:
            assert sum(q_eulerian(6).values()) == math.factorial(6)
        finally:
            clear_cache()

    def test_affinity_of_one_cpu_never_builds_a_pool(self, monkeypatch):
        # the host has two CPUs, but the process may run on one of them
        refuse_pools(monkeypatch)
        monkeypatch.setattr(eulerian, "_POOL_MIN_N", 5)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        clear_cache()
        try:
            assert sum(q_eulerian(6).values()) == math.factorial(6)
        finally:
            clear_cache()

    @pytest.mark.parametrize("host, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch, host, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: host)
        assert eulerian._usable_cpus() == usable

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            q_eulerian(12)
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            q_eulerian(0)

    def test_cached_terms_are_read_only(self):
        # every caller shares the cached mapping, so no caller may write to it
        poly = q_eulerian(5)
        with pytest.raises(TypeError):
            poly[(1, 0)] = 999
        assert q_eulerian(5) is poly
        assert sum(q_eulerian(5).values()) == math.factorial(5)

    def test_lookup_of_present_and_absent_terms(self):
        poly = q_eulerian(3)
        assert poly[1, 1] == 1
        assert (1, 5) not in poly and poly.get((1, 5), 0) == 0
        assert q_coefficients(poly, 9) == {}

    def test_equal_by_terms_and_unhashable(self):
        poly = q_eulerian(3)
        assert poly == E3 and poly != {**E3, (0, 0): 2} and poly != q_eulerian(4)
        with pytest.raises(TypeError, match="unhashable type"):
            hash(poly)


class TestStabilization:
    def test_d1_k1(self):
        assert stabilization_values(1, 1, 6) == [(3, 3), (4, 3), (5, 3), (6, 3)]

    def test_leading_coefficient(self):
        assert stabilization_values(2, 0, 6) == [(n, 1) for n in range(3, 7)]

    def test_d3_k1(self):
        assert stabilization_values(3, 1, 6) == [(5, 5), (6, 5)]

    def test_below_threshold_not_included(self):
        # one step below the threshold the coefficient differs (25 vs 31)
        assert q_eulerian(5)[2, maxwt(5, 2) - 3] == 25
        assert q_eulerian(6)[2, maxwt(6, 2) - 3] == 31

    def test_range_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            stabilization_values(1, 1, 2)
        with pytest.raises(ValueError):
            stabilization_values(0, 1, 6)
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            stabilization_values(1, -1, 6)


class TestWdSeries:
    def test_known_coefficients(self):
        assert wd_series(2, 4)[3] == 31
        assert wd_series(4, 3)[2] == 22
        for d in range(1, 5):
            assert wd_series(d, 1)[0] == 1

    def test_w1(self):
        assert wd_series(1, 6) == (1, 3, 7, 15, 31, 63)

    def test_w2(self):
        assert wd_series(2, 6) == (1, 4, 11, 31, 65, 157)

    def test_w3_head(self):
        assert wd_series(3, 4) == (1, 5, 16, 41)

    def test_w4_head(self):
        assert wd_series(4, 4) == (1, 6, 22, 63)

    def test_first_correction_beyond_the_theorem(self):
        # a conjecture (README, "Beyond the paper"), checked here by
        # enumeration through d = 3, orders 4, 6 and 8
        ds = range(1, 4)
        diffs = [wd_series(d, d + 2)[d + 1] - t_nk(2 * d + 1, d) for d in ds]
        assert diffs == [2 ** (d + 2) - 2 * d - 5 for d in ds] == [1, 7, 21]

    def test_single_term(self):
        for d in range(1, 6):
            assert wd_series(d, 1) == (1,)

    def test_limit(self):
        with pytest.raises(LimitExceeded, match="7 terms of the d=5 series need n=12"):
            wd_series(5, 7)
        with pytest.raises(LimitExceeded):
            wd_series(6, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            wd_series(1, 0)
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            wd_series(0, 2)

