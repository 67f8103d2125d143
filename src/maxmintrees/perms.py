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
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

Permutation = tuple[int, ...]
ExtendedPermutation = tuple[int, ...]


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


def parse_permutation(text: str) -> Permutation:
    """
    Parse a one-line permutation from whitespace- or comma-separated labels,
    each an ASCII decimal integer.

    >>> parse_permutation("2 1 3")
    (2, 1, 3)
    >>> parse_permutation("2,1,3")
    (2, 1, 3)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    # int() also reads 1_0, +1 and non-ASCII digits; in ASCII text without
    # '_' or '+' it reads exactly the tokens that match -?[0-9]+
    values = None
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            values = list(map(int, tokens))
        except ValueError:
            pass
    if values is None:
        values = []
        for pos, tok in enumerate(tokens, start=1):
            try:
                values.append(_ascii_int(tok))
            except ValueError:
                raise ValueError(f"non-integer token {tok!r} at position {pos}") from None
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
    return sum(1 for i in range(1, len(p)) if p[i - 1] > p[i])


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
