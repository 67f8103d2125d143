"""
Eulerian and q-Eulerian polynomials, and the stabilized coefficient series
the q-Eulerian ones converge to.

The Eulerian numbers come from the classical recurrence
A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1).  The q-Eulerian polynomials
come from a recurrence over the minimum decomposition (``_recurrence``),
and from exhaustive enumeration of S_n only for an order below
``_RECURRENCE_MIN_N`` that no recurrence run has cached yet.  Their
coefficients near the largest weights come from one run of that
recurrence cut by x-degree and deficiency (``near_maxwt``), at every
order, with no enumeration.

The q-Eulerian polynomial of order n counts the symmetric group S_n by
(descents, weight): the coefficient of x^d q^w is the number of
permutations with d descents and weight w.  ``q_eulerian`` returns it as
a read-only mapping (d, w) -> count with no zero entries; the command line
renders it.  All arithmetic is exact integers.

For fixed d, the coefficients at q-degree maxwt(n, d) - k stop depending
on n once n reaches d + k + 1; ``stabilization_values`` lists them from
that threshold on, off a cut run.  Collecting the stabilized values gives
a power series W_d per d; ``wd_series`` returns its head a_0, a_1, ... as
a plain tuple of integers, reading each off ``q_eulerian`` at its
threshold order.  The paper's theorem equates a_k with the partition
count T(d+k, d) for k <= d, which ``bijection`` checks stem by stem.

The recurrence comes from the minimum decomposition.  Append n+1 to a
permutation of length n: the extended word ends in its maximum, and its
minimum decomposition tree has d+1 leaves, the d descent values and n+1,
while weight + n is the sum, over its stem nodes, of the leaves under
each (``mindecomp``).  Let a_m(x, q) count the words on m letters that
end in their maximum by x^(leaves) q^(stem leaf sum); then the
q-Eulerian polynomial E_n has [x^d q^w] E_n = [x^(d+1) q^(w+n)] a_(n+1).
One letter is one leaf: a_1 = x.  A longer word splits at its minimum
into left . min . right.  The left part cuts into blocks that end at
their own maxima, and every set of such words on disjoint letters is cut
from exactly one left part, the one that lists them by decreasing
maximum.  The right part ends in the word's maximum, so it is one more
such block, the one that holds the maximum: a word on k+2 letters that
ends in its maximum is its minimum placed over a set of blocks on the
other k+1 letters, and each set gives one word.  The minimum is a stem
node with every leaf under it, so it turns each block's x^l into
(xq)^l: a block of j+1 letters counts as b_j = a_(j+1)(xq, q).  With e_k
the count of sets of blocks on k letters below the minimum, e_0 = 1, and
the block that holds the largest of k+1 letters has j+1 of them:
e_(k+1) = sum_j C(k, j) b_j e_(k-j).  By the block argument
a_(k+2) = e_(k+1), so one sequence carries the recurrence: b_0 = xq,
b_j = e_j(xq, q) for j >= 1, and [x^d q^w] E_n = [x^(d+1) q^(w+n)] e_n,
one product sum per order.

One recurrence run to order n holds every order 1..n.  One cache keeps
every run, full or cut, by (n, x_max, k_max), and the first cached run
that covers a request serves it: ``q_eulerian`` reads a full run, and
``near_maxwt`` any run that keeps its x-degree and deficiency, a full
run too.  A run unpacks an order into its read-only mapping when that
order is first read and keeps it, so every caller of one order shares
one mapping, and a sweep that asks for its largest order first makes
one run and enumerates nothing.  Only an order below
``_RECURRENCE_MIN_N`` asked for first, before any cached run covers it,
is still enumerated, as the benchmark in perfbench/ counts those kernel
calls: one lexicographic walk of S_n with one call of the weights
kernel per permutation, which the tests hold the recurrence equal to
through order 9.  The walked orders are the one other cache, and
``clear_cache`` empties both.  Only ``eulerian N --q`` and ``wd`` reach
that walk: the counts of ``verify bijection`` (``bijection_report``, at
deficiency n-d-1) and of ``verify stabilization`` come from a cut run at
every order, one per sweep.
Every order above ``MAX_Q_ORDER`` is refused with ``LimitExceeded``, by
``near_maxwt`` as by ``q_eulerian``: on 2 cores (os.cpu_count() = 2),
Python 3.11.7, a full run read at its top order took a median 0.18 ms
at order 8, 0.26 ms at order 9, 0.06 s at order 25 and 0.19 s at order
30, and a cut run to order 25 0.25 ms at x-degree 2 and deficiency 3
and 2.1 ms at deficiency 12; in-process, the sweeps ``verify bijection
--n-max 25``, ``wd 1 --terms 24`` and ``verify stabilization --d 1
--n-max 25`` took 0.27, 0.05 s and 0.6 ms.  The limit no longer marks
where the run grows slow; it stays because raising it turns every
refusal above 25 into a result.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Callable, Mapping
from itertools import permutations as _permutations
from math import comb, factorial
from types import MappingProxyType

from .perms import abridged_int
from .weights import descents_and_weight

# the largest order of q_eulerian, near_maxwt, wd_series and
# stabilization_values; a full recurrence run takes 0.06 s there and
# 0.19 s at order 30, on 2 cores with Python 3.11.7 (the module docstring
# gives the timings and why the limit stays)
MAX_Q_ORDER = 25

# the smallest order that starts a recurrence run; an order below it that
# no cached run covers is enumerated, one kernel call per permutation
_RECURRENCE_MIN_N = 8


class LimitExceeded(RuntimeError):
    """A computation was refused because n exceeds its limit."""


def maxwt(n: int, d: int) -> int:
    """
    Maximum weight of a length-n permutation with d descents: d(n - d - 1).

    >>> maxwt(6, 2)
    6
    """
    if not 0 <= d <= n - 1:
        raise ValueError(f"descent count {abridged_int(d)} outside 0..{abridged_int(n - 1)}")
    return d * (n - d - 1)


def eulerian_polynomial(n: int) -> list[int]:
    """
    Coefficient list of the Eulerian polynomial: entry d counts the
    permutations of length n with d descents.  The recurrence enumerates
    nothing, so ``MAX_Q_ORDER`` does not apply; an order above 1000 is
    refused, since from order 1559 on a coefficient passes Python's
    4300-digit int -> str limit.

    >>> eulerian_polynomial(4)
    [1, 11, 11, 1]
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {abridged_int(n)}")
    if n > 1000:
        raise LimitExceeded(f"n={abridged_int(n)} exceeds the Eulerian polynomial limit 1000")
    row = [1]
    for m in range(2, n + 1):
        # A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1)
        row = [
            (k + 1) * a + (m - k) * b
            for k, (a, b) in enumerate(zip(row + [0], [0] + row))
        ]
    return row


# a recurrence run's reader: order m -> its read-only mapping (d, w) -> count
_Reader = Callable[[int], Mapping[tuple[int, int], int]]


def _recurrence(n: int, x_max: int, k_max: int) -> _Reader:
    """
    One run of the minimum-decomposition recurrence of the module
    docstring to order n, in polynomials of x and q:

        e_0 = 1,  b_0 = xq,  b_j = e_j(xq, q),
        e_(k+1) = sum_j C(k, j) b_j e_(k-j),
        [x^d q^w] E_n = [x^(d+1) q^(w+n)] e_n.

    a_m counts the words on m letters that end in their maximum by the
    leaves (x) and the leaf sum over the stem nodes (q) of their minimum
    decomposition, and b_j = a_(j+1)(xq, q) counts such a word on j+1
    letters below a new minimum.  e_k counts the sets of such words on k
    letters below one new minimum: for k >= 1 the minimum and the set make
    one word on k+1 letters, so e_k = a_(k+1), and a_1 = x gives b_0.  One
    run to order n makes e_1, ..., e_n, one product sum each, so it holds
    every order up to n.  It returns the reader of its orders: called with
    m in 1..n, it unpacks the q-Eulerian polynomial of order m into a
    read-only mapping (d, w) -> count on its first call and returns that
    same mapping on every later one.

    Each e_k is a dict x-degree l -> one int that packs the q-coefficients
    of x^l in slots of ``size`` bytes, slot w for q^w (Kronecker
    substitution), so one int multiplication multiplies two x-slices.
    ``size`` is the byte length of n!.  Up to 8 bytes it is rounded up to
    1, 2, 4 or 8, so that ``memoryview.cast`` unpacks a slice; above that
    each slot is read with ``int.from_bytes``, as 16-byte slots made
    order 25 about 1.6 times slower.  No slot carries: every term of the
    sum is nonnegative, so no coefficient of a product or of a partial
    sum exceeds the coefficient of e_(k+1) that it adds to, and
    e_(k+1)(1, 1) = (k+1)! <= n! < 256**size.  b_j needs no dict of its
    own: its slice l is e_j's shifted up l slots.
    The terms j and k-j share one product, as C(k, j) = C(k, k-j):
    C(k, j) e_j[l1] e_(k-j)[l2] adds to x^(l1+l2) times q^l1 + q^l2, or
    times q^l1 alone when j = k-j.  The terms j = 0, x q e_k, and j = k,
    b_k, are shifts of e_k.

    ``x_max`` and ``k_max`` cut the run: it keeps only the monomials of
    x-degree at most ``x_max`` and of deficiency at most ``k_max``, and
    every monomial it keeps is exact.  The largest q-degree at x^l is
    l(k+1-l) in e_k, sets of blocks on k letters, and l(j+2-l) in b_j, a
    block on j+1 letters; a monomial's deficiency is that bound minus its
    q-degree.  At x^(d+1) of e_n the bound is maxwt(n, d) + n, so the
    coefficient of x^d q^(maxwt(n, d) - k) in E_n has deficiency k.  In
    the term b_j e_(k-j) of e_(k+1), the bound at x^(l1+l2) exceeds the
    bounds of the factors' slices l1 and l2 by the gap

        l1(k-j-l2) + l2(j+1-l1),

    which is >= 0, as no factor's x-degree exceeds its letter count.  So
    a product monomial's deficiency is its factors' sum plus the gap, and
    its x-degree is their sum: a dropped monomial feeds only dropped ones.
    A cut slice l of e_k keeps the q-degrees from
    max(0, l(k+1-l) - k_max) up, slot 0 holding the lowest, and b_j's
    slice l starts l higher.  A product term is shifted by the factors'
    offsets plus its l1 or l2, minus the offset of its target slice; a
    negative shift drops low slots, exactly, as no slot carries.  A
    product whose two terms both have a gap above ``k_max`` is never
    formed; the term j and k-j of a shared product has the gap
    l2(j-l1) + l1(k-j+1-l2).  The full run is the run cut at x-degree n
    and deficiency n*n, which drop nothing: every offset is 0, and every
    gap is below n*n.  So one product loop serves both, and a run
    unpacks only the orders that are read: on 2 cores, Python 3.11.7,
    alternated in one process against a separate uncut loop that
    unpacked every order, a full run read at its top order took 0.97 to
    1.06 times as long at orders 8 and 9, 0.96 to 1.01 times at 13 and
    0.83 to 0.91 times at 25, while reading every order of it took 1.43
    to 1.50 times as long at orders 8 and 9.

    >>> _recurrence(3, 3, 9)(3) == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    >>> _recurrence(3, 3, 0)(3) == {(0, 0): 1, (1, 1): 1, (2, 0): 1}
    True
    """
    size = (factorial(n).bit_length() + 7) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size)
    bits = 8 * size
    # low[k][l]: the q-degree in slot 0 of e_k's slice l
    low = [
        [b - k_max if (b := l * (k + 1 - l)) > k_max else 0 for l in range(k + 1)]
        for k in range(n + 1)
    ]

    def shift(p: int, s: int) -> int:
        return p << bits * s if s >= 0 else p >> bits * -s

    e = [{0: 1}]
    for k in range(n):
        now, then = low[k], low[k + 1]
        out = {
            l + 1: shift(p, now[l] + 1 - then[l + 1])  # x q e_k, gap k-l
            for l, p in e[k].items()
            if l < x_max and k - l <= k_max
        }
        if k:
            for l, p in e[k].items():  # b_k, gap 0
                out[l] = out.get(l, 0) + shift(p, now[l] + l - then[l])
        for j in range(1, k // 2 + 1):
            c = comb(k, j)
            pair = 2 * j < k
            low_j, low_kj, tail = low[j], low[k - j], e[k - j].items()
            for l1, p1 in e[j].items():
                p1 *= c
                s1 = low_j[l1] + l1
                # the gaps of the terms j and k-j less k_max, g + l2 h: the
                # docstring's gaps regrouped by l2; g2 = 1 drops the term k-j
                # when it is the term j
                g1, h1 = l1 * (k - j) - k_max, j + 1 - 2 * l1
                g2, h2 = (l1 * (k - j + 1) - k_max, j - 2 * l1) if pair else (1, 0)
                for l2, p2 in tail:
                    l = l1 + l2
                    first = g1 + l2 * h1 <= 0
                    second = g2 + l2 * h2 <= 0
                    if l > x_max or not (first or second):
                        continue
                    # shift, inlined in the hottest loop
                    s = bits * (s1 + low_kj[l2] - then[l])
                    p = p1 * p2
                    t = 0
                    if first:
                        t = p << s if s >= 0 else p >> -s
                    if second:
                        s += bits * (l2 - l1)
                        t += p << s if s >= 0 else p >> -s
                    out[l] = out.get(l, 0) + t
        e.append(out)

    orders: dict[int, Mapping[tuple[int, int], int]] = {}

    def order(m: int) -> Mapping[tuple[int, int], int]:
        if m not in orders:
            terms = {}
            for l, p in e[m].items():
                # x^(d+1) q^(w+m) in e_m is x^d q^w in E_m: the slots below
                # q^m are dropped, or slot 0 is above it; cast reads native
                # byte order
                below = m - low[m][l]
                p >>= bits * max(below, 0)
                raw = p.to_bytes(-(-p.bit_length() // bits) * size, sys.byteorder)
                if fmt:
                    counts = memoryview(raw).cast(fmt)
                else:
                    counts = [
                        int.from_bytes(raw[i:i + size], sys.byteorder)
                        for i in range(0, len(raw), size)
                    ]
                for w, c in enumerate(counts, max(-below, 0)):
                    if c:
                        terms[l - 1, w] = c
            orders[m] = MappingProxyType(terms)
        return orders[m]

    return order


# every recurrence run, full or cut, (n, x_max, k_max) -> the reader of its
# orders; a run serves every order m <= n read at x_max or less and k_max
# or less, and keeps each order it has unpacked
_RUNS: dict[tuple[int, int, int], _Reader] = {}

# the orders below _RECURRENCE_MIN_N walked in S_n, n -> read-only mapping
_WALKED: dict[int, Mapping[tuple[int, int], int]] = {}


def clear_cache() -> None:
    _RUNS.clear()
    _WALKED.clear()


def _covering(n: int, x_max: int, k_max: int) -> _Reader | None:
    """The reader of the first cached run that covers order n at x-degree
    x_max and deficiency k_max, or None."""
    for (m, x, k), run in _RUNS.items():
        if m >= n and x >= x_max and k >= k_max:
            return run
    return None


def _read(n: int, x_max: int, k_max: int) -> Mapping[tuple[int, int], int]:
    """Order n off the first cached run that covers it, or off a new run to
    n, which the cache keeps."""
    run = _covering(n, x_max, k_max)
    if run is None:
        run = _RUNS[n, x_max, k_max] = _recurrence(n, x_max, k_max)
    return run(n)


def _check_order(n: int) -> None:
    """Refuse an order above MAX_Q_ORDER, then one below 1."""
    if n > MAX_Q_ORDER:
        raise LimitExceeded(
            f"n={abridged_int(n)} exceeds the q-Eulerian order limit {MAX_Q_ORDER}"
        )
    if n < 1:
        raise ValueError(f"n must be positive, got {abridged_int(n)}")


def q_eulerian(n: int) -> Mapping[tuple[int, int], int]:
    """
    The q-Eulerian polynomial of order n as a mapping (d, w) -> count of
    the permutations with d descents and weight w, zero counts omitted.
    Results are cached per n, so every caller shares one read-only mapping:
    one recurrence run serves every order 1..n, each unpacked when it is
    first read.

    >>> q_eulerian(3) == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    _check_order(n)
    if n in _WALKED:
        return _WALKED[n]
    if n < _RECURRENCE_MIN_N and _covering(n, n, n * n) is None:
        counts = Counter(map(descents_and_weight, _permutations(range(1, n + 1))))
        _WALKED[n] = MappingProxyType(dict(counts))
        return _WALKED[n]
    return _read(n, n, n * n)


def near_maxwt(n: int, d_max: int, k_max: int) -> Mapping[tuple[int, int], int]:
    """
    The q-Eulerian polynomial of order n near its largest weights: it maps
    (d, w) -> count, zero counts omitted, and holds every d <= d_max and
    w >= maxwt(n, d) - k_max.  It comes from a cut recurrence run, which
    enumerates nothing, and may hold more: a cached run, full or cut,
    serves every call that it covers in n, d_max and k_max, so a sweep
    that asks for its largest order first makes one run.
    ``MAX_Q_ORDER`` applies, as to ``q_eulerian``.

    >>> order_4 = near_maxwt(4, 1, 1)
    >>> order_4[1, maxwt(4, 1)], order_4[1, maxwt(4, 1) - 1]
    (1, 3)
    """
    _check_order(n)
    return _read(n, d_max + 1, k_max)


def stabilization_values(d: int, k: int, n_max: int) -> list[tuple[int, int]]:
    """
    (n, coefficient of x^d q^{maxwt(n,d)-k}) for n from the stabilization
    threshold d+k+1 through n_max, each read off ``near_maxwt``.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {abridged_int(d)}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {abridged_int(k)}")
    threshold = d + k + 1
    if n_max < threshold:
        raise ValueError(
            f"n_max={abridged_int(n_max)} is below the threshold {abridged_int(threshold)}"
        )
    near_maxwt(n_max, d, k)  # one cut run for every order of the sweep
    return [
        (n, near_maxwt(n, d, k).get((d, maxwt(n, d) - k), 0))
        for n in range(threshold, n_max + 1)
    ]


def wd_series(d: int, terms: int) -> tuple[int, ...]:
    """
    The first ``terms`` stabilized coefficients (a_0, ..., a_{terms-1}) for
    descent count d, each read off ``q_eulerian`` at its threshold order
    n = d+k+1.

    >>> wd_series(1, 6)
    (1, 3, 7, 15, 31, 63)
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {abridged_int(d)}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {abridged_int(terms)}")
    if d + terms > MAX_Q_ORDER:
        raise LimitExceeded(
            f"{abridged_int(terms)} terms of the d={abridged_int(d)} series "
            f"need n={abridged_int(d + terms)}, above the limit {MAX_Q_ORDER}"
        )
    q_eulerian(d + terms)  # one recurrence run for every term's order
    return tuple(
        q_eulerian(d + k + 1).get((d, maxwt(d + k + 1, d) - k), 0) for k in range(terms)
    )
