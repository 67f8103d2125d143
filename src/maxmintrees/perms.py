"""
Permutation words and their descent statistics.

A permutation of length n is a tuple containing each label 1..n exactly
once.  Positions are 1-based throughout: position i of sigma refers to
sigma[i-1] of the underlying tuple, and every position reported by this
package (CLI output, JSON, error messages) uses that convention.

Position i (1 <= i <= n) is a descent of sigma when sigma_i > sigma_{i+1},
reading sigma_{n+1} = n+1; position n therefore is never a descent.  Every
other position in 1..n is a non-descent.

The extended word of sigma adds sentinels so that scanning algorithms never
run off either end: value n+2 at position 0, sigma at positions 1..n, the
appended maximum n+1 at position n+1, and 0 at position n+2.  Indexing the
extended tuple by k directly reads position k.

``parse_permutation`` reads a word's text in slices of about 64 Ki
characters, each cut just after a separator, and turns every slice's
tokens into labels before it reads the next; so a long word never holds
all of its token strings at once, and its peak memory is about what the
labels and the result tuple need.  Every error names the global 1-based
position of the token or label at fault, and shows a token or label of
more than 20 characters by its first 20 and its length.  A digit token
with more digits than int() reads (sys.get_int_max_str_digits(), 4300 by
default, leading zeros aside) is out of range, like any label above n.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator, Sequence

Permutation = tuple[int, ...]
ExtendedPermutation = tuple[int, ...]

# parse_permutation reads its text this many characters at a time, so the
# token strings of a long word never all exist at once
_SLICE_CHARS = 1 << 16
_SEPARATOR = re.compile(r"[\s,]")  # \s matches what str.split() splits on


def validate_permutation(values: Iterable[int]) -> Permutation:
    """
    Check that values is a rearrangement of 1..n and return it as a tuple.

    Raises ValueError naming the offending 1-based position; a label with
    more digits than str() writes is out of range without being converted.
    Int subclasses other than bool are labels.

    >>> validate_permutation([2, 1, 3])
    (2, 1, 3)
    """
    word = tuple(values)
    n = len(word)
    if n == 0:
        raise ValueError("empty permutation")
    seen = bytearray(n + 1)
    for pos, v in enumerate(word, start=1):
        # a plain int skips the two isinstance calls, most of the loop's cost
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise ValueError(f"non-integer label {v!r} at position {pos}")
        if not 1 <= v <= n:
            raise ValueError(f"label {abridged_int(v)} out of range [1, {n}] at position {pos}")
        if seen[v]:
            raise ValueError(f"duplicate label {v} at position {pos}")
        seen[v] = 1
    return word


def ascii_int(tok: str) -> int:
    """int(tok) for tokens that match -?[0-9]+ only; OverflowError for one
    whose value has more digits than int() reads."""
    # one way to match each token keeps the match linear in its length
    sign_digits = re.fullmatch(r"(-?)0*([1-9][0-9]*|0)", tok)
    if not sign_digits:
        raise ValueError(f"not an ASCII decimal integer: {tok!r}")
    try:  # int()'s digit limit counts leading zeros, so they are left out
        return int(sign_digits[1] + sign_digits[2])
    except ValueError:
        raise OverflowError("more digits than int() reads") from None


def abridged(text: str, show=str) -> str:
    """show(text), or, for a text above 20 characters, show of its first 20
    and how long it is: a message about one token stays short."""
    if len(text) <= 20:
        return show(text)
    unit = "digits" if text.isdigit() else "characters"
    return f"{show(text[:20])}... ({len(text)} {unit})"


def abridged_int(value: int) -> str:
    """abridged(str(value)), or "of more than N digits" for a value with
    more digits than str() writes: a message about one integer stays short
    and never meets str()'s own error.

    >>> abridged_int(-7)
    '-7'
    >>> abridged_int(10**30)
    '10000000000000000000... (31 digits)'
    """
    try:
        return abridged(str(value))
    except ValueError:
        return f"of more than {sys.get_int_max_str_digits()} digits"


def _token_slices(text: str) -> Iterator[list[str]]:
    """
    The tokens of text, one list per slice of about _SLICE_CHARS characters;
    each slice ends just after a separator, so no token straddles two.
    """
    start = 0
    while start < len(text):
        cut = _SEPARATOR.search(text, start + _SLICE_CHARS - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end].replace(",", " ").split()
        start = end


def parse_permutation(text: str) -> Permutation:
    """
    Parse a one-line permutation from whitespace- or comma-separated labels,
    each an ASCII decimal integer.

    >>> parse_permutation("2 1 3")
    (2, 1, 3)
    >>> parse_permutation("2,1,3")
    (2, 1, 3)
    """
    # int() also reads 1_0, +1 and non-ASCII digits; in ASCII text without
    # '_' or '+' it reads exactly the tokens that match -?[0-9]+
    fast = text.isascii() and "_" not in text and "+" not in text
    values: list[int] = []
    slices = _token_slices(text)
    for tokens in slices:
        done = len(values)
        if fast:
            try:
                values += map(int, tokens)
                continue
            except ValueError:
                # the slice is read again below, which names the position of
                # a token at fault; one with leading zeros past int()'s digit
                # limit is read there
                del values[done:]
        for pos, tok in enumerate(tokens, start=done + 1):
            try:
                values.append(ascii_int(tok))
            except OverflowError:  # far above any label: out of range, like a shorter one
                n = done + len(tokens) + sum(map(len, slices))
                raise ValueError(
                    f"label {abridged(tok)} out of range [1, {n}] at position {pos}"
                ) from None
            except ValueError:
                raise ValueError(
                    f"non-integer token {abridged(tok, repr)} at position {pos}"
                ) from None
    if not values:
        raise ValueError("empty permutation text")
    return validate_permutation(values)


def extend(p: Sequence[int]) -> ExtendedPermutation:
    """
    The sentinel-extended word of p: n+2, then p, then n+1, then 0.

    >>> extend((2, 1, 3))
    (5, 2, 1, 3, 4, 0)
    """
    n = len(p)
    return (n + 2, *p, n + 1, 0)
