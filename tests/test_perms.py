import itertools

import pytest
from hypothesis import given, strategies as st

from maxmintrees.perms import (
    descent_count,
    descent_positions,
    descent_values,
    extend,
    parse_permutation,
    validate_permutation,
)

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


def oracle_descents(p):
    """Direct scan of the word extended by n+1."""
    word = list(p) + [len(p) + 1]
    return tuple(i for i in range(1, len(p) + 1) if word[i - 1] > word[i])


class TestParse:
    def test_single(self):
        assert parse_permutation("1") == (1,)

    def test_plain(self):
        assert parse_permutation("2 1 3") == (2, 1, 3)

    def test_commas(self):
        assert parse_permutation("2,1,3") == (2, 1, 3)

    def test_fifteen_element_example(self):
        assert parse_permutation("1 12 15 9 10 5 7 11 6 4 13 3 8 2 14") == EXAMPLE_15

    def test_duplicate_reports_position(self):
        with pytest.raises(ValueError, match="duplicate label 1 at position 2"):
            parse_permutation("1 1 2")

    def test_out_of_range_reports_position(self):
        with pytest.raises(ValueError, match=r"label 5 out of range \[1, 3\] at position 3"):
            parse_permutation("1 2 5")

    def test_non_integer_reports_position(self):
        with pytest.raises(ValueError, match="non-integer token 'x' at position 2"):
            parse_permutation("1 x 2")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_permutation("   ")

    def test_validate_rejects_zero(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_permutation([0, 1])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([True, 2], "non-integer label True at position 1"),
            ([1, 2.0], "non-integer label 2.0 at position 2"),
            ([1, "2"], "non-integer label '2' at position 2"),
            ([2, 2, 7], "duplicate label 2 at position 2"),
            ([7, 2, 2], "label 7 out of range [1, 3] at position 1"),
            ([1, 3, 3, -1], "duplicate label 3 at position 3"),
            ([1, 2, 4, 4], "duplicate label 4 at position 4"),
        ],
    )
    def test_first_fault_in_word_order_is_reported(self, values, message):
        with pytest.raises(ValueError) as exc:
            validate_permutation(values)
        assert str(exc.value) == message

    def test_first_non_integer_token_is_reported(self):
        with pytest.raises(ValueError) as exc:
            parse_permutation("1,2 3.5 y 9")
        assert str(exc.value) == "non-integer token '3.5' at position 3"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_0 2 3 4 5 6 7 8 9 1", "non-integer token '1_0' at position 1"),
            ("2 +1", "non-integer token '+1' at position 2"),
            ("1 \u0662", "non-integer token '\u0662' at position 2"),
            ("\uff12 1", "non-integer token '\uff12' at position 1"),
            ("2 1 3 x \u0661", "non-integer token 'x' at position 4"),
            ("-1 2", "label -1 out of range [1, 2] at position 1"),
        ],
    )
    def test_only_ascii_digit_labels_are_read(self, text, message):
        # int() alone reads every one of the first four tokens as a number
        with pytest.raises(ValueError) as exc:
            parse_permutation(text)
        assert str(exc.value) == message

    def test_non_ascii_whitespace_still_separates(self):
        assert parse_permutation("2\u20031\u00a03") == (2, 1, 3)


class TestDescents:
    def test_identity_has_none(self):
        assert descent_positions((1, 2, 3)) == ()

    def test_single_descent(self):
        assert descent_positions((1, 3, 2)) == oracle_descents((1, 3, 2)) == (2,)

    def test_reversal(self):
        assert descent_positions((3, 2, 1)) == oracle_descents((3, 2, 1)) == (1, 2)

    def test_last_position_never_descends(self):
        # the appended n+1 always exceeds the last letter
        for n in range(1, 7):
            for p in itertools.permutations(range(1, n + 1)):
                assert n not in descent_positions(p)

    def test_count_and_values(self):
        assert descent_count(EXAMPLE_15) == 6
        assert descent_values(EXAMPLE_15) == {15, 10, 11, 6, 13, 8}

    def test_bounds(self):
        for n in range(1, 7):
            assert descent_count(tuple(range(1, n + 1))) == 0
            assert descent_count(tuple(range(n, 0, -1))) == n - 1

    def test_eulerian_number_crosscheck(self):
        # number of 4-permutations by descent count is 1, 11, 11, 1
        counts = [0] * 4
        for p in itertools.permutations(range(1, 5)):
            counts[descent_count(p)] += 1
        assert counts == [1, 11, 11, 1]


class TestExtend:
    def test_singleton(self):
        assert extend((1,)) == (3, 1, 2, 0)

    def test_three(self):
        assert extend((2, 1, 3)) == (5, 2, 1, 3, 4, 0)

    def test_reversal(self):
        assert extend((3, 2, 1)) == (5, 3, 2, 1, 4, 0)

    @given(st.permutations(list(range(1, 9))))
    def test_roundtrip(self, values):
        p = tuple(values)
        ext = extend(p)
        n = len(p)
        assert ext[0] == n + 2 and ext[n + 1] == n + 1 and ext[n + 2] == 0
        assert ext[1 : n + 1] == p

    def test_injective_small(self):
        images = {extend(p) for p in itertools.permutations(range(1, 6))}
        assert len(images) == 120


def test_single_permutation_ops_scale_to_a_million():
    n = 10**6
    p = tuple(range(1, n + 1))
    assert descent_count(p) == 0
    assert descent_positions(p) == ()
    ext = extend(p)
    assert len(ext) == n + 3
    assert ext[0] == n + 2 and ext[-2] == n + 1 and ext[-1] == 0
