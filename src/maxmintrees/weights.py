"""
Permutation weight straight from the word, without building a tree.

The weight of a permutation equals, summed over its non-descent positions,
the number of descents inside that position's subtree range, minus n.  The
subtree range of a non-descent i in the extended word is [max(M, L) + 1, m]
where

  j = first position right of i whose value is smaller than sigma_i,
  m = position of the maximum value strictly between i and j,
  M = nearest position left of m whose value exceeds sigma_m,
  L = nearest position left of i whose value is smaller than sigma_i
      (the front sentinel position 0 when there is none).

The appended maximum n+1 always counts as a descent; the back sentinel 0
makes that fall out of the plain comparison ext[k] > ext[k+1].

Two routes find these ranges.  The scanning route is the oracle:
``descents_and_weight``, the per-permutation kernel of the S_n
enumeration, carries it inline in one flat function.  From each
non-descent i it scans right for j and m, then walks left from m - 1
while the values stay in [sigma_i, sigma_m), counting descents as it
goes.  Positions i..m-1 all hold values in that interval, so the walk
stops exactly at max(M, L) and counts the range's descents without a
prefix array (quadratic worst case, fast in practice on short words).
``weight_accelerated`` and ``range_details`` take every range from one
left-to-right monotonic-stack pass, O(n) per word, that yields the ranges
as it finds them rather than listing them, and count each range's
descents from prefix sums.  The tests hold the two routes equal to each
other, to ``trees.subtree`` and to the segments of the block split in
``trees.decompose_blocks``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from .perms import Permutation, extend


def _descent_prefix(ext: Sequence[int]) -> array:
    """P[k] = number of descent positions in 1..k of the extended word."""
    n1 = len(ext) - 2
    P = array("i", bytes(4 * (n1 + 1)))
    c = 0
    for k in range(1, n1 + 1):
        if ext[k] > ext[k + 1]:
            c += 1
        P[k] = c
    return P


def descents_and_weight(p: Permutation) -> tuple[int, int]:
    """
    (descent count, weight) of p in one pass over the extended word.

    This is the scanning range algorithm fused with the descent count:
    quadratic on long rising runs, fast on the short words of the
    symmetric-group enumeration, whose per-permutation kernel it is.  Each
    descent is tallied where it is skipped.  Each non-descent i with value
    v scans right for j and m, then walks left from m - 1 while the values
    lie in [v, sigma_m), adding one for every descent it passes; the walk
    stops at max(M, L), the first value below v or above sigma_m.  m
    itself is always a descent and lies in every one of the n - d ranges,
    so it is left out of the walk: the weight, the range descents summed
    minus n, is the walk counts summed minus d.  It is also the oracle the
    linear routes are tested against.

    >>> descents_and_weight((2, 1, 3))
    (1, 0)
    """
    n = len(p)
    ext = (n + 2, *p, n + 1, 0)
    d = 0
    total = 0
    for i, v in enumerate(p, 1):
        m = i + 1
        best = ext[m]
        if v > best:
            d += 1
            continue
        # j and m: scan right while values exceed v, keeping the argmax
        k = m + 1
        w = ext[k]
        while w > v:
            if w > best:
                best = w
                m = k
            k += 1
            w = ext[k]
        # walk left to max(M, L); u is the value right of position x
        u = best
        x = m - 1
        w = ext[x]
        while v <= w < best:
            if w > u:
                total += 1
            u = w
            x -= 1
            w = ext[x]
    return d, total - d


def _subtree_ranges(ext: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """
    (i, lo, m) for every non-descent position i of the extended word, each
    yielded as its next smaller value pops i: its subtree range is lo+1..m,
    so it holds P[m] - P[lo] descents for the prefix counts P of
    _descent_prefix.

    One left-to-right pass keeps two monotonic stacks.  The rising stack
    holds positions of increasing values; a position i is popped by its
    next smaller value j, and each entry carries the argmax of the positions
    between it and the entry above it, so m is known when i is popped and
    L is the entry left beneath it.  The falling stack gives every position
    its nearest greater value on the left; m lies left of j, so M is known
    by the time i is popped.
    """
    # -1 indexes the back sentinel, whose value 0 lies below every other
    # value; as a position it lies left of the front sentinel, so it loses
    # every max(M, L)
    none = -1
    # above[k]: nearest position left of k with a greater value
    above = array("i", bytes(4 * len(ext)))
    rising = [none]
    inner = [none]  # inner[s]: argmax strictly between rising[s] and rising[s + 1]
    falling = [0]
    for t in range(1, len(ext)):
        v = ext[t]
        seen = none  # argmax of the positions popped so far at t
        while ext[rising[-1]] > v:
            i = rising.pop()
            m = inner.pop()
            if ext[seen] > ext[m]:
                m = seen
            if m == none:  # nothing between i and t: i is a descent
                seen = i
            else:
                M = above[m]
                L = rising[-1]
                yield i, (M if M > L else L), m
                seen = m
        if ext[seen] > ext[inner[-1]]:
            inner[-1] = seen
        rising.append(t)
        inner.append(none)
        while ext[falling[-1]] < v:
            falling.pop()
        above[t] = falling[-1]
        falling.append(t)


def range_details(p: Permutation) -> list[dict]:
    """
    Per-non-descent breakdown of the range computation: position, value,
    subtree range and the number of descents inside it, in ascending
    position.  One linear stack pass plus an O(n log n) sort of the rows.

    >>> [r["range"] for r in range_details((2, 1, 3))]
    [[1, 4], [3, 4]]
    """
    ext = extend(p)
    P = _descent_prefix(ext)
    return [
        {
            "position": i,
            "value": ext[i],
            "range": [lo + 1, m],
            "descents": P[m] - P[lo],
        }
        for i, lo, m in sorted(_subtree_ranges(ext))
    ]


def weight_accelerated(p: Permutation) -> int:
    """
    Weight of p from the subtree ranges of _subtree_ranges, O(n) per call.

    >>> weight_accelerated((1, 3, 2))
    1
    """
    ext = extend(p)
    P = _descent_prefix(ext)
    return sum(P[m] - P[lo] for _, lo, m in _subtree_ranges(ext)) - len(p)


# perfbench/test_perfbench.py imports this name; ROADMAP item 1 deletes both
weight_via_ranges = weight_accelerated
