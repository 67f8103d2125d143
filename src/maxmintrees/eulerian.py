"""
Eulerian and q-Eulerian polynomials, and the stabilized coefficient series
the q-Eulerian ones converge to.

The Eulerian numbers come from the classical recurrence
A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1).  The q-Eulerian polynomials
come from exhaustive enumeration of S_n.

The q-Eulerian polynomial of order n counts the symmetric group S_n by
(descents, weight): the coefficient of x^d q^w is the number of
permutations with d descents and weight w.  ``q_eulerian`` returns it as
a read-only mapping (d, w) -> count with no zero entries; the command line
renders it.  All arithmetic is exact integers.

For fixed d, the coefficients at q-degree maxwt(n, d) - k stop depending
on n once n reaches d + k + 1; ``stabilization_values`` lists them from
that threshold on.  Collecting the stabilized values gives a power series
W_d per d; ``wd_series`` returns its head a_0, a_1, ... as a plain tuple
of integers, each read at its threshold order.  The paper's theorem equates a_k with the partition count
T(d+k, d) for k <= d, which ``bijection`` checks stem by stem.

Enumeration walks S_n in lexicographic blocks keyed by the first element,
calling the weights kernel once per permutation and counting its
(descents, weight) results at C speed.  Blocks are independent work units
merged by coefficient-wise addition, so the result does not depend on where
they run: from order ``_POOL_MIN_N`` on, with more than one CPU that the
process may run on, they fan out over a process pool with one process per
such CPU, at most n.  The cutoff is the measured break-even: wall / CPU
seconds of q_eulerian(n) in a fresh process on 2 cores, Python 3.11.7,
medians of 10 interleaved runs, the CPU including the pool's workers:

    order   in-process     pooled
    7       0.017 / 0.017  0.048 / 0.062   stays in-process
    8       0.169 / 0.169  0.135 / 0.219   pool (lower wall in 10 of 10 runs)
    9       1.62 / 1.62    0.985 / 1.77    pool
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Mapping
from itertools import permutations as _permutations
from types import MappingProxyType

from .weights import descents_and_weight

# the largest S_n that q_eulerian enumerates: order 11 is 39916800 permutations
DEFAULT_MAX_N = 11

# the smallest order at which the pool wins: on 2 cores, order 7 took 0.017 s
# in-process against 0.048 s pooled, order 8 took 0.169 s against 0.135 s
_POOL_MIN_N = 8


class LimitExceeded(RuntimeError):
    """A computation was refused because n exceeds its limit."""


def maxwt(n: int, d: int) -> int:
    """
    Maximum weight of a length-n permutation with d descents: d(n - d - 1).

    >>> maxwt(6, 2)
    6
    """
    if not 0 <= d <= n - 1:
        raise ValueError(f"descent count {d} outside 0..{n - 1}")
    return d * (n - d - 1)


def _check_limit(n: int) -> None:
    if n > DEFAULT_MAX_N:
        raise LimitExceeded(f"n={n} exceeds the exhaustive limit {DEFAULT_MAX_N}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def eulerian_polynomial(n: int) -> list[int]:
    """
    Coefficient list of the Eulerian polynomial: entry d counts the
    permutations of length n with d descents.  The recurrence enumerates
    nothing, so no S_n limit applies; an order above 1000 is refused, since
    from order 1559 on a coefficient passes Python's 4300-digit int -> str limit.

    >>> eulerian_polynomial(4)
    [1, 11, 11, 1]
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > 1000:
        raise LimitExceeded(f"n={n} exceeds the Eulerian polynomial limit 1000")
    row = [1]
    for m in range(2, n + 1):
        # A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1)
        row = [
            (k + 1) * a + (m - k) * b
            for k, (a, b) in enumerate(zip(row + [0], [0] + row))
        ]
    return row


def _block_counts(task: tuple[int, int]) -> Counter[tuple[int, int]]:
    """(descents, weight) histogram over the S_n block with a fixed first element."""
    n, first = task
    rest = [v for v in range(1, n + 1) if v != first]
    return Counter(
        map(descents_and_weight, map((first,).__add__, _permutations(rest)))
    )


def _usable_cpus() -> int:
    """CPUs this process may run on, which an affinity mask can make fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_Q_CACHE: dict[int, Mapping[tuple[int, int], int]] = {}


def clear_cache() -> None:
    _Q_CACHE.clear()


def q_eulerian(n: int) -> Mapping[tuple[int, int], int]:
    """
    The q-Eulerian polynomial of order n as a mapping (d, w) -> count of
    the permutations with d descents and weight w, zero counts omitted.
    Results are cached per n, so every caller shares one read-only mapping.

    >>> q_eulerian(3) == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    _check_limit(n)
    cached = _Q_CACHE.get(n)
    if cached is not None:
        return cached
    tasks = [(n, first) for first in range(1, n + 1)]
    workers = min(n, _usable_cpus())
    if workers > 1 and n >= _POOL_MIN_N:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block_counts, tasks))
    else:
        blocks = [_block_counts(t) for t in tasks]
    merged: Counter[tuple[int, int]] = Counter()
    for block in blocks:
        merged.update(block)
    assert sum(merged.values()) == math.factorial(n)
    poly = _Q_CACHE[n] = MappingProxyType(dict(merged))
    return poly


def stabilization_values(d: int, k: int, n_max: int) -> list[tuple[int, int]]:
    """
    (n, coefficient of x^d q^{maxwt(n,d)-k}) for n from the stabilization
    threshold d+k+1 through n_max.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    threshold = d + k + 1
    if n_max < threshold:
        raise ValueError(f"n_max={n_max} is below the threshold {threshold}")
    _check_limit(n_max)
    return [
        (n, q_eulerian(n).get((d, maxwt(n, d) - k), 0))
        for n in range(threshold, n_max + 1)
    ]


def wd_series(d: int, terms: int) -> tuple[int, ...]:
    """
    The first ``terms`` stabilized coefficients (a_0, ..., a_{terms-1}) for
    descent count d, each read at its threshold order n = d+k+1.

    >>> wd_series(1, 6)
    (1, 3, 7, 15, 31, 63)
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if d + terms > DEFAULT_MAX_N:
        raise LimitExceeded(
            f"{terms} terms of the d={d} series need n={d + terms}, "
            f"above the limit {DEFAULT_MAX_N}"
        )
    return tuple(
        q_eulerian(d + k + 1).get((d, maxwt(d + k + 1, d) - k), 0)
        for k in range(terms)
    )

