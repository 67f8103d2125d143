import enum
import itertools
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from maxmintrees import perms
from maxmintrees.perms import extend, parse_permutation, validate_permutation
from oracles import descent_count, descent_positions, descent_values
from sample_words import EXAMPLE_15


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

    def test_an_over_long_label_counts_the_labels_of_later_slices(self):
        text = "1 " + "9" * 4301 + " 3" * 40_000  # past one 64 Ki slice
        with pytest.raises(ValueError) as exc:
            parse_permutation(text)
        assert str(exc.value).endswith("out of range [1, 40002] at position 2")

    def test_leading_zeros_past_the_digit_limit_are_read(self):
        assert parse_permutation("0" * 5000 + "2 1 3") == (2, 1, 3)
        assert parse_permutation("1 " + "0" * 5000 + "2") == (1, 2)
        with pytest.raises(ValueError, match=r"^label 0 out of range \[1, 2\] at position 2$"):
            parse_permutation("1 -" + "0" * 5000)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 " + "9" * 20, f"label {'9' * 20} out of range [1, 2] at position 2"),
            ("1 -" + "9" * 20, f"label -{'9' * 19}... (21 characters) out of range [1, 2] "
             "at position 2"),
            ("1 " + "x" * 20, f"non-integer token {'x' * 20!r} at position 2"),
            ("1 " + "x" * 5000, f"non-integer token {'x' * 20!r}... (5000 characters) "
             "at position 2"),
            # a regex that can split the zeros two ways takes minutes here
            ("1 " + "0" * 200_000 + "x", f"non-integer token {'0' * 20!r}... "
             "(200001 characters) at position 2"),
            # int() reads at most 4300 digits: more are out of range, not a non-integer
            *(("1 " + "9" * digits,
               f"label {'9' * 20}... ({digits} digits) out of range [1, 2] at position 2")
              for digits in (4300, 4301, 200_000)),
        ],
        ids=["20-digits", "21-characters", "20-characters", "5000-characters", "zeros-then-x",
             "4300-digits", "4301-digits", "200000-digits"],
    )
    def test_a_token_is_shown_whole_up_to_20_characters(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_permutation(text)
        assert str(exc.value) == message

    def test_validate_rejects_zero(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_permutation([0, 1])
        with pytest.raises(ValueError, match="^empty permutation$"):
            validate_permutation([])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([True, 2], "non-integer label True at position 1"),
            ([1, True], "non-integer label True at position 2"),
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

    @pytest.mark.parametrize(
        "label, shown",
        [
            (10**4299, f"1{'0' * 19}... (4300 digits)"),
            # str() writes at most 4300 digits, so the label is not converted
            (10**4300, "of more than 4300 digits"),
            (10**5000, "of more than 4300 digits"),
        ],
        ids=["4300-digits", "4301-digits", "5001-digits"],
    )
    def test_an_int_label_of_any_size_is_out_of_range(self, label, shown):
        with pytest.raises(ValueError) as exc:
            validate_permutation([1, label])
        assert str(exc.value) == f"label {shown} out of range [1, 2] at position 2"

    def test_int_subclasses_other_than_bool_are_labels(self):
        Label = enum.IntEnum("Label", "ONE TWO THREE")
        assert validate_permutation([Label.TWO, Label.ONE, Label.THREE]) == (2, 1, 3)
        with pytest.raises(ValueError, match="^duplicate label 2 at position 2$"):
            validate_permutation([Label.TWO, Label.TWO, Label.THREE])

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


def parse_whole_text(text):
    """The one-shot parse: every token of the text first, then the labels."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    values = []
    for pos, tok in enumerate(tokens, start=1):
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ValueError(f"non-integer token {tok!r} at position {pos}")
        values.append(int(tok))
    return validate_permutation(values)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


SLICE_SIZES = (1, 2, 3, 5, 8)


class TestSlices:
    """parse_permutation reads its text in slices; shrink them to a few characters."""

    @pytest.mark.parametrize("size", SLICE_SIZES)
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("10 2 3 4 5 6 7 8 9 1", (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)),
            ("10,2,3,4,5,6,7,8,9,1", (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)),
            ("10\t2\t\t3\n4\n\n5 ,6,, 7\r\n8\u2003 9\u00a01", (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)),
            (",\n 12  11 10 9 8 7 6 5 4 3 2 1 \t,", tuple(range(12, 0, -1))),
            ("1", (1,)),
        ],
    )
    def test_tokens_across_slice_boundaries(self, monkeypatch, size, text, expected):
        monkeypatch.setattr(perms, "_SLICE_CHARS", size)
        assert parse_permutation(text) == expected

    @pytest.mark.parametrize("size", SLICE_SIZES)
    @pytest.mark.parametrize("text", ["", " ", ",", "\t\n ,,\r\n", "\u2003 \u00a0,"])
    def test_empty_and_whitespace_only(self, monkeypatch, size, text):
        monkeypatch.setattr(perms, "_SLICE_CHARS", size)
        with pytest.raises(ValueError) as exc:
            parse_permutation(text)
        assert str(exc.value) == "empty permutation text"

    @pytest.mark.parametrize("size", SLICE_SIZES)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 3 4 5 6 x 7", "non-integer token 'x' at position 7"),
            ("1,2,3,4,5,6,7,3.5", "non-integer token '3.5' at position 8"),
            ("1 2 3 4 5 6 7 1_0 9 8", "non-integer token '1_0' at position 8"),
            ("2 1 3 4 5 6 7 +8", "non-integer token '+8' at position 8"),
            ("1 2 3 4 5 6 \u0667", "non-integer token '\u0667' at position 7"),
            ("1 2 3 4 5 6 7 y 9 z", "non-integer token 'y' at position 8"),
            ("1 2 3 4 5 6 7 1 9 x", "non-integer token 'x' at position 10"),
            ("1 2 3 4 5 6 7 8 9 100", "label 100 out of range [1, 10] at position 10"),
            ("1 2 3 4 5 6 7 8 -9", "label -9 out of range [1, 9] at position 9"),
            ("1 2 3 4 5 6 7 8 9 10 11 12 5", "duplicate label 5 at position 13"),
        ],
    )
    def test_faults_after_the_first_slice(self, monkeypatch, size, text, message):
        monkeypatch.setattr(perms, "_SLICE_CHARS", size)
        assert outcome(parse_permutation, text) == outcome(parse_whole_text, text)
        assert outcome(parse_permutation, text) == f"ValueError: {message}"

    def test_random_texts_match_the_one_shot_parse(self, monkeypatch):
        rng = random.Random(7)
        pieces = ["1", "2", "3", "4", "5", "12", "x", "-1", "+2", "1_0", "\u0663",
                  " ", ",", "\t", "\n", "  ", ", "]
        for _ in range(400):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 14)))
            size = rng.choice(SLICE_SIZES)
            monkeypatch.setattr(perms, "_SLICE_CHARS", size)
            assert outcome(parse_permutation, text) == outcome(parse_whole_text, text), (text, size)

    @given(
        st.permutations(list(range(1, 40))).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.sampled_from([" ", ",", "\t", "\n", " , ", "\r\n", "  "]),
                         min_size=len(p) + 1, max_size=len(p) + 1),
            )
        ),
        st.integers(1, 12),
    )
    def test_chunked_parse_equals_split(self, word_and_separators, size):
        word, seps = word_and_separators
        text = seps[0] + "".join(str(v) + sep for v, sep in zip(word, seps[1:]))
        with mock.patch.object(perms, "_SLICE_CHARS", size):
            parsed = parse_permutation(text)
        assert parsed == tuple(map(int, text.replace(",", " ").split())) == tuple(word)

    @pytest.mark.parametrize("separator", [" ", ",", "\n"])
    def test_peak_memory_stays_under_48_bytes_per_letter(self, separator):
        # the token list of the whole text alone would take about 60 bytes
        # per letter on top of the 42 that the result tuple needs while it
        # grows, and a list of the labels copied into it would take 8 more
        n = 200_000
        word = list(range(1, n + 1))
        random.Random(3).shuffle(word)
        text = separator.join(map(str, word))
        tracemalloc.start()
        try:
            parsed = parse_permutation(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == tuple(word)
        assert peak / n < 48, f"{peak / n:.1f} bytes per letter"


class TestOracleDescentHelpers:
    """descent_positions, descent_count and descent_values of tests/oracles.py."""

    def test_identity_has_none(self):
        assert descent_positions((1, 2, 3)) == ()

    def test_single_descent(self):
        assert descent_positions((1, 3, 2)) == (2,)

    def test_reversal(self):
        assert descent_positions((3, 2, 1)) == (1, 2)

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


def test_validate_and_extend_scale_to_a_million():
    n = 10**6
    p = tuple(range(1, n + 1))
    assert validate_permutation(p) == p
    ext = extend(p)
    assert len(ext) == n + 3
    assert ext[0] == n + 2 and ext[-2] == n + 1 and ext[-1] == 0
