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
median 0.28 ms at order 9, 0.43 s at order 25 and 2.0 s at order 30;
in-process, the sweeps ``verify bijection --n-max 25``, ``wd 1 --terms 24``
and ``verify stabilization --d 1 --n-max 25`` took 0.66, 0.42 and 0.41 s.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from itertools import permutations as _permutations
from math import comb
from types import MappingProxyType

from .perms import abridged_int
from .weights import descents_and_weight

# the largest order of q_eulerian, wd_series and stabilization_values; the
# recurrence takes 0.43 s there and 2.0 s at order 30, on 2 cores with
# Python 3.11.7 (timings in the module docstring)
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


def _products(terms) -> dict[tuple[int, int], int]:
    """Sum of c * f * g over the (c, f, g) terms, polynomials as in ``_recurrence``."""
    out: dict[tuple[int, int], int] = {}
    for c, f, g in terms:
        for (x1, q1), c1 in f.items():
            c1 *= c
            for (x2, q2), c2 in g.items():
                key = (x1 + x2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def _recurrence(n: int) -> list[dict[tuple[int, int], int]]:
    """
    The q-Eulerian polynomials of orders 1..n, each (d, w) -> count, from
    the minimum-decomposition recurrence of the module docstring, with
    polynomials in x and q as dicts (x-degree, q-degree) -> coefficient:

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

    >>> _recurrence(3)[2] == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    b = [{(1, 1): 1}]  # b_0 = a_1(xq, q)
    e = [{(0, 0): 1}]
    orders = []
    for k in range(n):
        e_next = _products((comb(k, j), b[j], e[k - j]) for j in range(k + 1))
        e.append(e_next)
        b.append({(x, q + x): c for (x, q), c in e_next.items()})
        orders.append({(x - 1, q - k - 1): c for (x, q), c in e_next.items()})
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

