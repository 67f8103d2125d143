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
online pass over two monotonic stacks, O(n) per word, with no copy of the
word and no prefix array: a stacked position carries its count of
descents to its left and its link into the other stack, so a range's
descents are known when it closes.  The tests hold the two routes equal
to each other, to ``trees.subtree`` and to the block split's segments.
"""

from __future__ import annotations

from itertools import chain

from .perms import Permutation


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


def _stack_pass(p: Permutation, rows: list | None = None) -> int:
    """
    The descents of every subtree range summed, in one left-to-right pass
    over p and then the back sentinels n+1 and 0; with rows, each range also
    appends sigma_i, sigma_lo, sigma_m and its descents to that flat list.

    j pops i off the rising stack.  Its entries hold a value, the count c of
    descents left of it, its link (its index on the falling stack), and the
    value and link of the argmax between it and the entry beneath, so m is
    known when i pops, and L lies beneath i.  The falling stack holds the
    values that no greater value has followed, with their counts, and m and
    M, the entry beneath m, are both still on it.  m and M are descents and
    L is not, so P[m] = c_m + 1, P[M] = c_M + 1 and P[L] = c_L for P[k] the
    descents in 1..k, and M > L exactly when c_M >= c_L.  The front sentinel
    (P[0] = 0) and the bottom entry, the back sentinel 0, count c = -1.  The
    top entry lives in locals: it is the previous position, a descent
    exactly when it pops at once.
    """
    n = len(p)
    rising = []  # five slots per entry below the top one
    falling, counts = [n + 2], [-1]
    c = total = 0
    tv, tc, tk, tmv, tmk = 0, -1, 0, 0, 0  # the top entry; a value of 0 is no argmax
    for v in chain(p, (n + 1, 0)):
        if tv > v:
            c += 1
            if tmv > tv:
                mv, mk = tmv, tmk
            else:
                mv, mk = tv, tk
            while rising[-5] > v:
                iv, _, _, amv, amk = rising[-5:]
                del rising[-5:]
                low = rising[-4]
                high = counts[mk - 1]
                d = counts[mk] + 1 - low if low > high else counts[mk] - high
                total += d
                if rows is not None:
                    rows += (iv, rising[-5] if low > high else falling[mk - 1], mv, d)
                if amv > mv:
                    mv, mk = amv, amk
        else:
            rising += (tv, tc, tk, tmv, tmk)
            mv = mk = 0
        while falling[-1] < v:
            falling.pop()
            counts.pop()
        tk = len(falling)
        falling.append(v)
        counts.append(c)
        tv, tc = v, c
        tmv, tmk = mv, mk
    return total


def range_details(p: Permutation) -> list[dict]:
    """
    Per-non-descent breakdown of the range computation: position, value,
    subtree range and the number of descents inside it, in ascending
    position.  One linear stack pass; the rows it closes are then placed
    by position.

    >>> [r["range"] for r in range_details((2, 1, 3))]
    [[1, 4], [3, 4]]
    """
    rows: list = []
    _stack_pass(p, rows)
    n = len(p)
    where = [0] * (n + 3)  # the position of each value; n+2 sits at 0
    for i, v in enumerate(chain(p, (n + 1,)), 1):
        where[v] = i
    out = [None] * (n + 1)
    for v, lo, m, d in zip(*[iter(rows)] * 4):
        i = where[v]
        out[i] = {"position": i, "value": v, "range": [where[lo] + 1, where[m]], "descents": d}
    return [row for row in out if row]


def weight_accelerated(p: Permutation) -> int:
    """
    Weight of p from the subtree ranges of one stack pass, O(n) per call.

    >>> weight_accelerated((1, 3, 2))
    1
    """
    return _stack_pass(p) - len(p)


# perfbench/test_perfbench.py imports this name; ROADMAP item 1 deletes both
weight_via_ranges = weight_accelerated
