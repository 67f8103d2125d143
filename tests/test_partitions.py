import math

import pytest

from maxmintrees.bijection import stable_region
from maxmintrees.eulerian import LimitExceeded
from maxmintrees.partitions import (
    MAX_PARTITION_N,
    crosscheck_triangle,
    enumerate_partitions,
    read_bfile,
    read_triangle_csv,
    t_nk,
    t_nk_contributions,
    t_triangle,
)

from expected_values import T85_CONTRIBUTIONS, TRIANGLE_10, triangle_csv


class TestEnumerate:
    def test_zero(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_four(self):
        assert list(enumerate_partitions(4)) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_eight_has_22(self):
        assert len(list(enumerate_partitions(8))) == 22

    def test_each_once_and_decreasing(self):
        for n in range(9):
            seen = list(enumerate_partitions(n))
            assert len(seen) == len(set(seen))
            assert seen == sorted(seen, reverse=True)
            for lam in seen:
                assert sum(lam) == n
                assert all(a >= b for a, b in zip(lam, lam[1:]))

    def test_negative(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_limit_refuses_before_enumerating(self):
        assert next(enumerate_partitions(MAX_PARTITION_N)) == (MAX_PARTITION_N,)
        with pytest.raises(LimitExceeded):
            next(enumerate_partitions(MAX_PARTITION_N + 1))
        with pytest.raises(LimitExceeded):
            t_triangle(MAX_PARTITION_N + 1)


class TestTnk:
    def test_example_8_5(self):
        assert t_nk(8, 5) == 92

    def test_example_8_5_contributions(self):
        assert t_nk_contributions(8, 5) == T85_CONTRIBUTIONS

    def test_diagonal(self):
        for n in range(11):
            assert t_nk(n, n) == 1

    def test_small_cells(self):
        assert t_nk(2, 1) == 3
        assert t_nk(4, 2) == 11

    def test_plain_partition_count_at_k_zero(self):
        for n in range(11):
            assert t_nk(n, 0) == len(list(enumerate_partitions(n)))

    def test_zero_above_diagonal(self):
        for n in range(8):
            assert t_nk(n, n + 1) == 0
            assert t_nk(n, n + 5) == 0

    def test_row_sums(self):
        for n in range(11):
            total = sum(t_nk(n, k) for k in range(n + 1))
            assert total == sum(2 ** len(lam) for lam in enumerate_partitions(n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            t_nk(-1, 0)


class TestTriangle:
    def test_first_rows(self):
        assert t_triangle(2).rows == ((1,), (1, 1), (2, 3, 1))

    def test_trivial(self):
        assert t_triangle(0).rows == ((1,),)

    def test_cell_10_5(self):
        assert t_triangle(10).rows[10][5] == 590

    def test_full_table(self):
        tri = t_triangle(10)
        assert [list(r) for r in tri.rows] == TRIANGLE_10

    def test_matches_t_nk(self):
        tri = t_triangle(8)
        for n in range(9):
            for k in range(n + 1):
                assert tri.rows[n][k] == t_nk(n, k)

    def test_stable_region(self):
        # cell (n, k) feeds the stabilized series when 2k >= n: the
        # correspondence region at (n+1, k)
        cells = {(0, 0): True, (2, 1): True, (8, 4): True, (8, 3): False,
                 (10, 5): True, (10, 4): False}
        for (n, k), stable in cells.items():
            assert stable_region(n + 1, k) is stable, (n, k)

    def test_csv_round_trip(self):
        tri = t_triangle(6)
        cells = read_triangle_csv(triangle_csv(tri.rows))
        assert cells == [
            (n, k, tri.rows[n][k]) for n in range(7) for k in range(n + 1)
        ]


class TestCrosscheck:
    def test_clean_csv(self):
        text = triangle_csv(t_triangle(10).rows)
        assert crosscheck_triangle(text) == {"checked": 66, "ok": True, "mismatches": []}

    def test_injected_fault_named(self):
        rows = [list(r) for r in t_triangle(5).rows]
        rows[4][2] += 1
        report = crosscheck_triangle(triangle_csv(rows))
        assert not report["ok"] and report["checked"] == 21
        assert report["mismatches"] == [{"n": 4, "k": 2, "expected": 11, "found": 12}]

    def test_empty_file(self):
        # a check that compared nothing must not pass
        with pytest.raises(ValueError) as info:
            crosscheck_triangle("")
        assert str(info.value) == "no triangle cells to check"

    def test_bfile(self):
        values = [c for row in TRIANGLE_10[:5] for c in row]
        lines = ["# two-kind partition triangle"] + [
            f"{i} {v}" for i, v in enumerate(values)
        ]
        text = "\n".join(lines) + "\n"
        assert crosscheck_triangle(text) == {"checked": 15, "ok": True, "mismatches": []}

    @pytest.mark.parametrize("fmt", ["auto", "csv"])
    def test_csv_comment_lines(self, fmt):
        text = "# T(n,k)\n" + triangle_csv(t_triangle(4).rows) + "# rows 0..4\n"
        assert crosscheck_triangle(text, fmt) == {"checked": 15, "ok": True, "mismatches": []}

    def test_bfile_gap_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            crosscheck_triangle("1 1\n3 1\n", fmt="bfile")
        with pytest.raises(ValueError, match="line 2: negative index -1"):
            crosscheck_triangle("# indices start at 0\n-1 1\n0 1\n", fmt="bfile")

    def test_unknown_format(self):
        with pytest.raises(ValueError) as info:
            crosscheck_triangle(triangle_csv(t_triangle(4).rows), fmt="xml")
        assert str(info.value) == "unknown triangle format 'xml'"

    def test_malformed_csv_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            crosscheck_triangle("1\n1,1\n2,3\n", fmt="csv")

    def test_non_integer_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            crosscheck_triangle("1\n1,x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("+1\n1,1\n2,3,1\n", "line 1: non-integer entry '+1'"),
            ("1\n1,1\n\u0662,3,1\n", "line 3: non-integer entry '\u0662'"),
            ("1\n1,1_0\n", "line 2: non-integer entry '1_0'"),
        ],
        ids=["plus", "arabic-indic", "underscore"],
    )
    def test_csv_reads_only_ascii_decimals(self, text, message):
        # int() alone reads all three; files follow the PERM label rule -?[0-9]+
        with pytest.raises(ValueError) as info:
            crosscheck_triangle(text, fmt="csv")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("csv", "1\n1," + "9" * 4301 + "\n",
             f"line 2: entry {'9' * 20}... (4301 digits) too large"),
            ("csv", "1\n1,x" + "9" * 30 + "\n",
             f"line 2: non-integer entry {'x' + '9' * 19!r}... (31 characters)"),
            ("bfile", "0 1\n1 " + "9" * 4301 + "\n",
             f"line 2: too large a field in {'1 ' + '9' * 18!r}... (4303 characters)"),
            ("bfile", "0 1\n1 x" + "9" * 30 + "\n",
             f"line 2: non-integer field in {'1 x' + '9' * 17!r}... (33 characters)"),
            ("bfile", "0 1\n" + "1" * 12 + " x" + "1" * 12 + "\n",
             f"line 2: non-integer field in {'1' * 12 + ' x' + '1' * 12!r}"),
            ("bfile", "0 1\n" + "9" * 4301 + "\n",
             f"line 2: expected 'index value', got {'9' * 20!r}... (4301 digits)"),
        ],
        ids=["csv-too-large", "csv-long-word", "bfile-too-large", "bfile-long-word",
             "bfile-short-fields", "bfile-one-long-field"],
    )
    def test_a_long_cell_is_refused_with_a_short_message(self, fmt, text, message):
        with pytest.raises(ValueError) as info:
            crosscheck_triangle(text, fmt=fmt)
        assert str(info.value) == message

    def test_cells_of_4300_digits_and_of_leading_zeros_are_read(self):
        report = crosscheck_triangle("1\n" + "0" * 5000 + "1," + "9" * 4300 + "\n")
        assert report["checked"] == 3
        assert report["mismatches"] == [{"n": 1, "k": 1, "expected": 1, "found": int("9" * 4300)}]

    @pytest.mark.parametrize("line", ["1 1_0", "+1 1", "1 \u0661"])
    def test_bfile_reads_only_ascii_decimals(self, line):
        with pytest.raises(ValueError) as info:
            crosscheck_triangle(f"0 1\n{line}\n", fmt="bfile")
        assert str(info.value) == f"line 2: non-integer field in {line!r}"


def test_binomial_identity_backstop():
    # sum over partitions of C(parts, k) summed over k equals the row sum
    for n in range(9):
        per_partition = [
            sum(math.comb(len(lam), k) for k in range(n + 1))
            for lam in enumerate_partitions(n)
        ]
        assert sum(per_partition) == sum(t_nk(n, k) for k in range(n + 1))
