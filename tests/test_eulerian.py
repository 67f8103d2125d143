import math
from collections import Counter

import pytest

import maxmintrees.eulerian as eulerian
from maxmintrees.eulerian import (
    LimitExceeded,
    MAX_Q_ORDER,
    clear_cache,
    eulerian_polynomial,
    maxwt,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from maxmintrees.partitions import t_nk
from maxmintrees.weights import descents_and_weight

from expected_values import E3, E4, E5, E6, q_coefficients
from sample_words import all_perms


def at_q_one(poly):
    """Coefficient list by x-degree after setting q = 1."""
    return [sum(q_coefficients(poly, d).values()) for d in range(max(x for x, _ in poly) + 1)]


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


def enumerated(n):
    """The order-n polynomial by the S_n enumeration, one kernel call each."""
    return dict(Counter(map(descents_and_weight, all_perms(n))))


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
        # orders 8 and 9 run the recurrence
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

    def test_limit(self):
        with pytest.raises(LimitExceeded, match="^n=26 exceeds the q-Eulerian order limit 25$"):
            q_eulerian(MAX_Q_ORDER + 1)
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


class TestRecurrence:
    def test_equals_the_enumeration(self):
        # one run to order 9 holds every lower order
        orders = eulerian._recurrence(9)
        assert len(orders) == 9
        for n, poly in enumerate(orders, 1):
            assert poly == enumerated(n), n

    def test_orders_10_to_25(self):
        # the largest order first: its one recurrence run caches the others;
        # in the region 2d >= n-1 the coefficient at weight (n-d-1)(d-1) is
        # T(n-1, d), which the partition route counts with no shared code
        clear_cache()
        pairs = 0
        try:
            for n in range(MAX_Q_ORDER, 9, -1):
                poly = q_eulerian(n)
                assert sum(poly.values()) == math.factorial(n), n
                assert at_q_one(poly) == eulerian_polynomial(n), n
                for d in range(1, n):
                    if 2 * d >= n - 1:
                        assert poly.get((d, (n - d - 1) * (d - 1)), 0) == t_nk(n - 1, d), (n, d)
                        pairs += 1
        finally:
            clear_cache()
        assert pairs == 144

    @pytest.mark.parametrize("n", [5, 6, 8, 9, 12, 13, 20, 21, 25])
    def test_top_order_at_each_slot_width(self, n):
        # a run packs its coefficients in slots of 1, 2, 4, 8 bytes, or the
        # byte length of n! from 9 bytes on: the width grows at orders 6,
        # 9, 13 and 21
        top = eulerian._recurrence(n)[-1]
        assert at_q_one(top) == eulerian_polynomial(n)
        assert sum(top.values()) == math.factorial(n)
        assert 0 not in top.values()

    def test_runs_on_different_slot_widths_agree(self):
        assert eulerian._recurrence(21)[:13] == eulerian._recurrence(13)
        assert eulerian._recurrence(9)[:8] == eulerian._recurrence(8)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The permutations passed to the enumeration's kernel, in order."""
        calls = []
        kernel = eulerian.descents_and_weight

        def counting(p):
            calls.append(p)
            return kernel(p)

        monkeypatch.setattr(eulerian, "descents_and_weight", counting)
        clear_cache()
        yield calls
        clear_cache()

    def test_enumeration_ends_below_order_8(self, kernel_calls):
        q_eulerian(7)
        assert len(kernel_calls) == 5040
        q_eulerian(8)
        assert len(kernel_calls) == 5040

    def test_a_recurrence_run_caches_the_orders_below_8(self, kernel_calls):
        q_eulerian(9)
        for n in range(1, 8):
            assert q_eulerian(n) == enumerated(n), n
        assert kernel_calls == []

    def test_an_order_cached_before_keeps_its_mapping(self):
        # enumerated or from an earlier run, a cached mapping is not replaced
        try:
            for first, later in [(5, 9), (9, 12)]:
                clear_cache()
                poly = q_eulerian(first)
                q_eulerian(later)
                assert q_eulerian(first) is poly, first
        finally:
            clear_cache()


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

    def test_limit(self):
        # one guard covers q_eulerian, wd_series and stabilization_values
        assert MAX_Q_ORDER == 25
        with pytest.raises(LimitExceeded, match="^n=26 exceeds the q-Eulerian order limit 25$"):
            stabilization_values(1, 0, 26)


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
        # a conjecture (README, "Beyond the paper"), checked here through
        # d = 8, orders 4, 6, ..., 18: d = 1, 2 are enumerated, and from
        # d = 3 on every order comes from the recurrence
        ds = range(1, 9)
        diffs = [wd_series(d, d + 2)[d + 1] - t_nk(2 * d + 1, d) for d in ds]
        assert diffs == [2 ** (d + 2) - 2 * d - 5 for d in ds]
        assert diffs == [1, 7, 21, 51, 113, 239, 493, 1003]

    def test_single_term(self):
        for d in range(1, 6):
            assert wd_series(d, 1) == (1,)

    def test_limit(self):
        with pytest.raises(LimitExceeded, match="21 terms of the d=5 series need n=26"):
            wd_series(5, 21)
        with pytest.raises(LimitExceeded):
            wd_series(6, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            wd_series(1, 0)
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            wd_series(0, 2)

