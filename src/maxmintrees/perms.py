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
position of the token or label at fault.
"""

from __future__ import annotations

import re
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

    Raises ValueError naming the offending 1-based position.

    >>> validate_permutation([2, 1, 3])
    (2, 1, 3)
    """
    word = tuple(values)
    n = len(word)
    if n == 0:
        raise ValueError("empty permutation")
    # fast path: type and range checks at C speed, then one duplicate pass;
    # any failure falls through to the loop below, which names the position
    if set(map(type, word)) == {int} and 1 <= min(word) and max(word) <= n:
        marked = bytearray(n + 1)
        for v in word:
            if marked[v]:
                break
            marked[v] = 1
        else:
            return word
    seen = [False] * (n + 1)
    for pos, v in enumerate(word, start=1):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"non-integer label {v!r} at position {pos}")
        if not 1 <= v <= n:
            raise ValueError(f"label {v} out of range [1, {n}] at position {pos}")
        if seen[v]:
            raise ValueError(f"duplicate label {v} at position {pos}")
        seen[v] = True
    return word


def _ascii_int(tok: str) -> int:
    """int(tok) for tokens that match -?[0-9]+ only."""
    if not re.fullmatch(r"-?[0-9]+", tok):
        raise ValueError(f"not an ASCII decimal integer: {tok!r}")
    return int(tok)


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
    for tokens in _token_slices(text):
        done = len(values)
        if fast:
            try:
                values += map(int, tokens)
                continue
            except ValueError:
                pass  # a token of this slice fails below too, naming its position
        for pos, tok in enumerate(tokens, start=done + 1):
            try:
                values.append(_ascii_int(tok))
            except ValueError:
                raise ValueError(f"non-integer token {tok!r} at position {pos}") from None
    if not values:
        raise ValueError("empty permutation text")
    return validate_permutation(values)


def descent_positions(p: Sequence[int]) -> tuple[int, ...]:
    """
    All descent positions of p, ascending.

    >>> descent_positions((1, 2, 3))
    ()
    >>> descent_positions((3, 2, 1))
    (1, 2)
    """
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def descent_count(p: Sequence[int]) -> int:
    """Number of descents of p."""
    return len(descent_positions(p))


def descent_values(p: Sequence[int]) -> frozenset[int]:
    """The labels sitting at descent positions of p."""
    return frozenset(p[i - 1] for i in descent_positions(p))


def extend(p: Sequence[int]) -> ExtendedPermutation:
    """
    The sentinel-extended word of p: n+2, then p, then n+1, then 0.

    >>> extend((2, 1, 3))
    (5, 2, 1, 3, 4, 0)
    """
    n = len(p)
    return (n + 2, *p, n + 1, 0)
