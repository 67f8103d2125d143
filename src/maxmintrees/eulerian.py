"""
Eulerian and q-Eulerian polynomials, and the stabilized coefficient series
the q-Eulerian ones converge to.

The Eulerian numbers come from the classical recurrence
A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1).  The q-Eulerian polynomials
come from a recurrence over the minimum decomposition (``_recurrence``),
and from exhaustive enumeration of S_n only for an order below
``_RECURRENCE_MIN_N`` that no recurrence run has cached yet.

The q-Eulerian polynomial of order n counts the symmetric group S_n by
(descents, weight): the coefficient of x^d q^w is the number of
permutations with d descents and weight w.  ``q_eulerian`` returns it as
a read-only mapping (d, w) -> count with no zero entries; the command line
renders it.  All arithmetic is exact integers.

For fixed d, the coefficients at q-degree maxwt(n, d) - k stop depending
on n once n reaches d + k + 1; ``stabilization_values`` lists them from
that threshold on.  Collecting the stabilized values gives a power series
W_d per d; ``wd_series`` returns its head a_0, a_1, ... as a plain tuple
of integers, reading each through ``stabilization_values`` at its
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

One recurrence run to order n holds every order 1..n, and ``q_eulerian``
caches them all, so a sweep that asks for its largest order first runs
it once and enumerates nothing.  Only an order below
``_RECURRENCE_MIN_N`` asked for first, before any run has cached it, is
still enumerated, as the benchmark in perfbench/ counts those kernel
calls: one lexicographic walk of S_n with one call of the weights kernel
per permutation, which the tests hold the recurrence equal to through
order 9.
Every order above ``MAX_Q_ORDER`` is refused with ``LimitExceeded``: on
2 cores (os.cpu_count() = 2), Python 3.11.7, the recurrence took a
median 0.13 ms at order 9, 0.05 s at order 25 and 0.21 s at order 30;
in-process, the sweeps ``verify bijection --n-max 25``, ``wd 1 --terms 24``
and ``verify stabilization --d 1 --n-max 25`` took 0.33, 0.05 and 0.05 s.
The limit no longer marks where the run grows slow; it stays because
raising it turns every refusal above 25 into a result.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Mapping
from itertools import permutations as _permutations
from math import comb, factorial
from types import MappingProxyType

from .perms import abridged_int
from .weights import descents_and_weight

# the largest order of q_eulerian, wd_series and stabilization_values; the
# recurrence takes 0.05 s there and 0.21 s at order 30, on 2 cores with
# Python 3.11.7 (the module docstring gives the timings and why the limit
# stays)
MAX_Q_ORDER = 25

# the smallest order that starts a recurrence run; an order below it that
# no run has cached yet is enumerated, one kernel call per permutation
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


def _recurrence(n: int) -> list[dict[tuple[int, int], int]]:
    """
    The q-Eulerian polynomials of orders 1..n, each (d, w) -> count, from
    the minimum-decomposition recurrence of the module docstring, in
    polynomials of x and q:

        e_0 = 1,  b_0 = xq,  b_j = e_j(xq, q),
        e_(k+1) = sum_j C(k, j) b_j e_(k-j),
        [x^d q^w] E_n = [x^(d+1) q^(w+n)] e_n.

    a_m counts the words on m letters that end in their maximum by the
    leaves (x) and the leaf sum over the stem nodes (q) of their minimum
    decomposition, and b_j = a_(j+1)(xq, q) counts such a word on j+1
    letters below a new minimum.  e_k counts the sets of such words on k
    letters below one new minimum: for k >= 1 the minimum and the set make
    one word on k+1 letters, so e_k = a_(k+1), and a_1 = x gives b_0.  One
    run to order n makes e_1, ..., e_n, one product sum each, so it
    returns every order up to n.

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

    >>> _recurrence(3)[2] == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    size = (factorial(n).bit_length() + 7) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size)
    bits = 8 * size
    e = [{0: 1}]
    orders = []
    for k in range(n):
        if k:
            out = {l + 1: p << bits for l, p in e[k].items()}  # x q e_k
            for l, p in e[k].items():  # b_k
                out[l] = out.get(l, 0) + (p << bits * l)
        else:
            out = {1: 1 << bits}  # b_0 e_0 = xq
        for j in range(1, k // 2 + 1):
            c = comb(k, j)
            for l1, p1 in e[j].items():
                p1 *= c
                for l2, p2 in e[k - j].items():
                    p = p1 * p2
                    p = (p << bits * l1) + (p << bits * l2) if 2 * j < k else p << bits * l1
                    out[l1 + l2] = out.get(l1 + l2, 0) + p
        e.append(out)
        # x^(d+1) q^(w+k+1) in e_(k+1) is x^d q^w in E_(k+1); cast reads
        # native byte order
        order = {}
        for l, p in out.items():
            p >>= bits * (k + 1)
            raw = p.to_bytes(-(-p.bit_length() // bits) * size, sys.byteorder)
            if fmt:
                counts = memoryview(raw).cast(fmt)
            else:
                counts = [
                    int.from_bytes(raw[i:i + size], sys.byteorder)
                    for i in range(0, len(raw), size)
                ]
            d = l - 1
            for w, c in enumerate(counts):
                if c:
                    order[d, w] = c
        orders.append(order)
    return orders


_Q_CACHE: dict[int, Mapping[tuple[int, int], int]] = {}


def clear_cache() -> None:
    _Q_CACHE.clear()


def q_eulerian(n: int) -> Mapping[tuple[int, int], int]:
    """
    The q-Eulerian polynomial of order n as a mapping (d, w) -> count of
    the permutations with d descents and weight w, zero counts omitted.
    Results are cached per n, so every caller shares one read-only mapping;
    one recurrence run caches every order 1..n that is not cached yet.

    >>> q_eulerian(3) == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    if n > MAX_Q_ORDER:
        raise LimitExceeded(
            f"n={abridged_int(n)} exceeds the q-Eulerian order limit {MAX_Q_ORDER}"
        )
    if n < 1:
        raise ValueError(f"n must be positive, got {abridged_int(n)}")
    if n in _Q_CACHE:
        return _Q_CACHE[n]
    if n < _RECURRENCE_MIN_N:
        counts = Counter(map(descents_and_weight, _permutations(range(1, n + 1))))
        _Q_CACHE[n] = MappingProxyType(dict(counts))
    else:
        # an order cached before keeps its mapping, which callers may hold
        for m, terms in enumerate(_recurrence(n), 1):
            _Q_CACHE.setdefault(m, MappingProxyType(terms))
    return _Q_CACHE[n]


def stabilization_values(d: int, k: int, n_max: int) -> list[tuple[int, int]]:
    """
    (n, coefficient of x^d q^{maxwt(n,d)-k}) for n from the stabilization
    threshold d+k+1 through n_max.
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
    q_eulerian(n_max)  # the order limit, and one recurrence run for the sweep
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
        raise ValueError(f"d must be >= 1, got {abridged_int(d)}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {abridged_int(terms)}")
    if d + terms > MAX_Q_ORDER:
        raise LimitExceeded(
            f"{abridged_int(terms)} terms of the d={abridged_int(d)} series "
            f"need n={abridged_int(d + terms)}, above the limit {MAX_Q_ORDER}"
        )
    q_eulerian(d + terms)  # one recurrence run for every term's order
    return tuple(stabilization_values(d, k, d + k + 1)[0][1] for k in range(terms))

