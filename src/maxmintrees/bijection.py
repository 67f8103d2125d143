"""
The correspondence between near-maximal-weight permutations and two-kind
partition counts.

Among permutations of length n with d descents, the heaviest have weight
maxwt(n, d) = d(n-d-1); the ones counted here sit exactly n-d-1 below
that, at weight (n-d-1)(d-1).  Their minimum decomposition trees have a
path-shaped stem 1 = x_1 < x_2 < ... < x_{n-d} with the d+1 leaves hanging
off it, so they can be enumerated stem by stem:

  * a stem is admissible when x_i <= n and its weight deficit
    sum(x_i - i) does not exceed the move-up budget n-d-1;
  * each stem carries C(n-1 - sum(x_i - i), d) trees (stars and bars over
    the d+1 leaves);
  * mapping the stem to the partition of n-1 with parts x_i - (i-1) padded
    with 1s matches stems bijectively to partitions of n-1 with at least
    d parts, so the stem totals add up to T(n-1, d).

The correspondence only holds on a region of (n, d) pairs.  The triangle
cells that feed the stabilized coefficient series satisfy 2d >= n-1, and
that is the region ``verify_bijection`` is validated on; the looser
predicate n >= 2d is also exposed so either region can be swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eulerian import DEFAULT_MAX_N, maxwt, q_eulerian
from .partitions import t_nk


@dataclass(frozen=True)
class Stem:
    """
    Strictly increasing stem labels x_1 < ... < x_{n-d} with x_1 = 1, in
    the context of permutations of length n with d descents.
    """

    labels: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        xs = self.labels
        if len(xs) != self.n - self.d:
            raise ValueError(f"stem must have {self.n - self.d} labels, got {len(xs)}")
        if xs[0] != 1:
            raise ValueError("stem must start at 1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("stem labels must increase strictly")
        if xs[-1] > self.n:
            raise ValueError(f"stem label {xs[-1]} exceeds n={self.n}")

    @property
    def deficit(self) -> int:
        """Weight lost relative to the all-bottom stem: sum of x_i - i."""
        return sum(x - i for i, x in enumerate(self.labels, start=1))

    def is_admissible(self) -> bool:
        return self.deficit <= self.n - self.d - 1


def stable_region(n: int, d: int) -> bool:
    """The verified correspondence region: 2d >= n-1."""
    return 2 * d >= n - 1


def wide_region(n: int, d: int) -> bool:
    """The looser predicate n >= 2d (not verified; exposed for sweeps)."""
    return n >= 2 * d


def target_weight(n: int, d: int) -> int:
    """The tested weight (n-d-1)(d-1), i.e. maxwt(n, d) - (n-d-1)."""
    return (n - d - 1) * (d - 1)


def count_perms_by_weight(
    n: int, d: int, w: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> int:
    """
    Number of permutations of length n with d descents and weight w, by
    exhaustive enumeration.

    >>> count_perms_by_weight(5, 2, 2)
    11
    """
    return q_eulerian(n, max_n=max_n, workers=workers).coefficient(d, w)


def _check_descents(n: int, d: int) -> None:
    """Reject d outside 1..n-1, where no permutation is counted."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"d={d} outside 1..{n - 1}")


def enumerate_stems(n: int, d: int) -> list[Stem]:
    """
    All admissible stems for (n, d), lexicographically.

    >>> [s.labels for s in enumerate_stems(4, 2)]
    [(1, 2), (1, 3)]
    """
    length = n - d
    if length < 1:
        raise ValueError(f"need at least one non-descent: n={n}, d={d}")
    budget = n - d - 1
    out: list[Stem] = []

    def rec(prefix: list[int], deficit: int):
        i = len(prefix)
        if i == length:
            out.append(Stem(tuple(prefix), n, d))
            return
        # next label x_{i+1} > x_i, at most n, deficit stays within budget
        lo = prefix[-1] + 1
        hi = min(n, (i + 1) + (budget - deficit))
        for x in range(lo, hi + 1):
            rec(prefix + [x], deficit + x - (i + 1))

    rec([1], 0)
    return out


def stem_count(s: Stem) -> int:
    """
    Number of minimum decomposition trees carrying stem s at the target
    weight: C(n-1 - deficit, d).

    >>> stem_count(Stem((1, 2, 3, 4), 9, 5))
    56
    """
    if not s.is_admissible():
        raise ValueError(f"stem {s.labels} exceeds the move-up budget")
    return math.comb(s.n - 1 - s.deficit, s.d)


def stem_to_partition(s: Stem) -> tuple[int, ...]:
    """
    The partition of n-1 owned by stem s: parts x_i - (i-1) for i from
    n-d down to 1, padded with 1s so the total is n-1.  Its part count L
    satisfies C(L, d) = stem_count(s).

    >>> stem_to_partition(Stem((1, 2, 3, 6), 9, 5))
    (3, 1, 1, 1, 1, 1)
    """
    if not s.is_admissible():
        raise ValueError(f"stem {s.labels} exceeds the move-up budget")
    parts = [x - i for i, x in enumerate(s.labels)]  # x_i - (i-1), i 1-based
    parts.reverse()
    ones = s.n - 1 - sum(parts)
    if ones >= 0:
        parts.extend([1] * ones)
    else:
        # the deficit can overshoot by one at the 2d = n-1 boundary; the
        # trailing parts being dropped are always 1s (x_1 = 1)
        for _ in range(-ones):
            dropped = parts.pop()
            if dropped != 1:
                raise ValueError(f"stem {s.labels} does not map to a partition")
    assert sum(parts) == s.n - 1
    assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert math.comb(len(parts), s.d) == stem_count(s)
    return tuple(parts)


def verify_bijection(
    n: int, d: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> bool:
    """
    True when the number of permutations of length n with d descents and
    weight (n-d-1)(d-1) equals T(n-1, d).

    >>> verify_bijection(5, 2)
    True
    """
    _check_descents(n, d)
    brute = count_perms_by_weight(
        n, d, target_weight(n, d), max_n=max_n, workers=workers
    )
    return brute == t_nk(n - 1, d)


def stem_report(n: int, d: int) -> dict:
    """
    Per-stem record for (n, d): every admissible stem with its tree count
    and partition, the stem total, T(n-1, d), and whether the totals agree
    with stem_to_partition injective into the partitions of n-1 with at
    least d parts.

    >>> r = stem_report(4, 2)
    >>> r["stems"][0], r["total"], r["t_value"], r["ok"]
    ({'stem': [1, 2], 'count': 3, 'partition': [1, 1, 1]}, 4, 4, True)
    """
    _check_descents(n, d)
    stems = [
        {
            "stem": list(s.labels),
            "count": stem_count(s),
            "partition": list(stem_to_partition(s)),
        }
        for s in enumerate_stems(n, d)
    ]
    images = {tuple(r["partition"]) for r in stems}
    total = sum(r["count"] for r in stems)
    t_value = t_nk(n - 1, d)
    return {
        "n": n,
        "d": d,
        "stems": stems,
        "total": total,
        "t_value": t_value,
        "ok": len(images) == len(stems)
        and all(len(lam) >= d for lam in images)
        and total == t_value,
    }


def verify_stem_totals(n: int, d: int) -> bool:
    """
    True when the stem counts add up to T(n-1, d) and stem_to_partition is
    injective into the partitions of n-1 with at least d parts.
    """
    return stem_report(n, d)["ok"]


def bijection_report(
    n: int, d: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> dict:
    """
    Per-(n, d) verification record: brute count, stem total, T(n-1, d),
    and pass/fail, plus the region predicates.
    """
    _check_descents(n, d)
    w = target_weight(n, d)
    brute = count_perms_by_weight(n, d, w, max_n=max_n, workers=workers)
    stems = enumerate_stems(n, d)
    stem_total = sum(stem_count(s) for s in stems)
    t_value = t_nk(n - 1, d)
    return {
        "n": n,
        "d": d,
        "weight": w,
        "brute_count": brute,
        "stem_total": stem_total,
        "t_value": t_value,
        "in_stable_region": stable_region(n, d),
        "in_wide_region": wide_region(n, d),
        "pass": brute == stem_total == t_value,
    }
