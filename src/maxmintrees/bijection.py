"""
The correspondence between near-maximal-weight permutations and two-kind
partition counts.

Among permutations of length n with d descents, the heaviest have weight
maxwt(n, d) = d(n-d-1); the ones counted here sit exactly n-d-1 below
that, at weight (n-d-1)(d-1).  Their minimum decomposition trees have a
path-shaped stem 1 = x_1 < x_2 < ... < x_{n-d} with the d+1 leaves hanging
off it, so they can be enumerated stem by stem.  A stem is the plain
label tuple (x_1, ..., x_{n-d}), read together with its (n, d):

  * a stem is admissible when x_i <= n and its weight deficit
    sum(x_i - i) does not exceed the move-up budget n-d-1;
  * each stem carries C(n-1 - sum(x_i - i), d) trees (stars and bars over
    the d+1 leaves);
  * mapping the stem to the partition of n-1 with a part x_i - (i-1) for
    every x_i > i, then 1s up to the total n-1, matches stems bijectively
    to partitions of n-1 with at least d parts, so the stem totals add up
    to T(n-1, d).

The count at (n, d) is the coefficient a_{n-d-1} of the stabilized series
for d descents, and the paper's theorem equates a_k with T(d+k, d) for
k <= d only: the region 2d >= n-1.  ``stem_report`` and
``bijection_report`` refuse every (n, d) outside it with ``ValueError``
before enumerating anything.  ``stem_report`` ends in one ``ok``, and the
CLI folds the ``pass`` of every bijection report into one; that value alone
decides the closing ``OK``/``FAILED`` line and the exit code 0/1.
"""

from __future__ import annotations

import math

from .eulerian import q_eulerian
from .partitions import t_nk
from .perms import abridged_int


def stable_region(n: int, d: int) -> bool:
    """The correspondence region: 2d >= n-1."""
    return 2 * d >= n - 1


def target_weight(n: int, d: int) -> int:
    """The tested weight (n-d-1)(d-1), i.e. maxwt(n, d) - (n-d-1)."""
    return (n - d - 1) * (d - 1)


def _check_descents(n: int, d: int) -> None:
    """Reject (n, d) outside n >= 2, 1 <= d <= n-1 and 2d >= n-1."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {abridged_int(n)}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"d={abridged_int(d)} outside 1..{abridged_int(n - 1)}")
    if not stable_region(n, d):
        raise ValueError(
            f"n={abridged_int(n)}, d={abridged_int(d)} lies outside the region 2d >= n-1"
        )


def enumerate_stems(n: int, d: int) -> list[tuple[int, ...]]:
    """
    All admissible stems for (n, d) as label tuples, lexicographically.

    >>> enumerate_stems(4, 2)
    [(1, 2), (1, 3)]
    """
    length = n - d
    if length < 1:
        raise ValueError(
            f"need at least one non-descent: n={abridged_int(n)}, d={abridged_int(d)}"
        )
    budget = n - d - 1
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], deficit: int):
        i = len(prefix)
        if i == length:
            out.append(prefix)
            return
        # next label x_{i+1} > x_i, at most n, deficit stays within budget
        lo = prefix[-1] + 1
        hi = min(n, (i + 1) + (budget - deficit))
        for x in range(lo, hi + 1):
            rec(prefix + (x,), deficit + x - (i + 1))

    rec((1,), 0)
    return out


def stem_count(stem: tuple[int, ...], n: int, d: int) -> int:
    """
    Number of minimum decomposition trees carrying the admissible stem at
    the target weight of (n, d): C(n-1 - deficit, d), the deficit being
    sum(x_i - i).

    >>> stem_count((1, 2, 3, 4), 9, 5)
    56
    """
    return math.comb(n - 1 - sum(x - i for i, x in enumerate(stem, start=1)), d)


def stem_to_partition(stem: tuple[int, ...], n: int) -> tuple[int, ...]:
    """
    The partition of n-1 owned by the admissible stem: a part x_i - (i-1)
    for every x_i > i, largest first, then 1s up to the total n-1.

    The padding is never negative.  The parts above 1 sum to
    deficit + #{x_i > i}; the deficit sum(x_i - i) is at most n-d-1, and
    so is #{x_i > i} because x_1 = 1, so the sum is at most 2(n-d-1),
    which is at most n-1 in the region 2d >= n-1.  The part count is
    therefore n-1 - deficit, whose C(., d) is stem_count.

    >>> stem_to_partition((1, 2, 3, 6), 9)
    (3, 1, 1, 1, 1, 1)
    """
    big = sorted((x - i for i, x in enumerate(stem) if x - i > 1), reverse=True)
    return tuple(big) + (1,) * (n - 1 - sum(big))


def stem_report(n: int, d: int) -> dict:
    """
    Per-stem record for (n, d): every admissible stem with its tree count
    and partition, the stem total, T(n-1, d), and ``ok``.  It is true when
    each stem's partition sums to n-1, has at least d parts and C(its part
    count, d) equals the stem's count, no two stems share a partition, and
    the stem total is T(n-1, d).

    >>> r = stem_report(4, 2)
    >>> r["stems"][0], r["total"], r["t_value"], r["ok"]
    ({'stem': [1, 2], 'count': 3, 'partition': [1, 1, 1]}, 4, 4, True)
    """
    _check_descents(n, d)
    # T(n-1, d) first: its partition guard refuses n before any stem is built
    t_value = t_nk(n - 1, d)
    stems = [
        {
            "stem": list(s),
            "count": stem_count(s, n, d),
            "partition": list(stem_to_partition(s, n)),
        }
        for s in enumerate_stems(n, d)
    ]
    images = {tuple(r["partition"]) for r in stems}
    total = sum(r["count"] for r in stems)
    each_fits = all(
        sum(r["partition"]) == n - 1
        and len(r["partition"]) >= d
        and math.comb(len(r["partition"]), d) == r["count"]
        for r in stems
    )
    return {
        "n": n,
        "d": d,
        "stems": stems,
        "total": total,
        "t_value": t_value,
        "ok": each_fits and len(images) == len(stems) and total == t_value,
    }


def bijection_report(n: int, d: int) -> dict:
    """
    Per-(n, d) verification record: the number of permutations of length n
    with d descents and weight (n-d-1)(d-1), read off ``q_eulerian``, the
    stem total and T(n-1, d) from ``stem_report``.  That count, the
    ``brute_count``, comes from the minimum-decomposition recurrence, which
    has no stems and no partitions in it, so it stays independent of the
    other two.  Only an order below 8 read before any recurrence run has
    cached it, as in a sweep whose largest order is below 8, is enumerated.
    The record passes when that count equals the stem total and
    ``stem_report`` is ok: each stem's partition sums to n-1, has at least
    d parts and C(its part count, d) equals the stem's count; no two stems
    share a partition; and the stem total is T(n-1, d).

    >>> bijection_report(5, 2)["pass"]
    True
    """
    _check_descents(n, d)
    w = target_weight(n, d)
    brute = q_eulerian(n).get((d, w), 0)
    stems = stem_report(n, d)
    return {
        "n": n,
        "d": d,
        "weight": w,
        "brute_count": brute,
        "stem_total": stems["total"],
        "t_value": stems["t_value"],
        "pass": stems["ok"] and brute == stems["total"],
    }
