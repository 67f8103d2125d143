"""
Eulerian and q-Eulerian polynomials, and the stabilized coefficient series
the q-Eulerian ones converge to.

The Eulerian numbers come from the classical recurrence
A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1).  The q-Eulerian polynomials
come from exhaustive enumeration of S_n.

The q-Eulerian polynomial of order n counts the symmetric group S_n by
(descents, weight): the coefficient of x^d q^w is the number of
permutations with d descents and weight w.  All arithmetic is exact
integers.

For fixed d, the coefficients at q-degree maxwt(n, d) - k stop depending
on n once n reaches d + k + 1.  Collecting those stabilized values gives a
power series per d whose k-th coefficient is read off at the threshold
order; ``wd_series`` assembles them.

Enumeration walks S_n in lexicographic blocks keyed by the first element,
calling the weights kernel once per permutation and counting its
(descents, weight) results at C speed.  Blocks are independent work units
merged by coefficient-wise addition, so the result is identical for any
worker count; ``workers`` > 1 fans the blocks out over OS processes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations as _permutations

from .weights import descents_and_weight

DEFAULT_MAX_N = 11

_POOL_MIN_N = 7  # below this, process overhead beats the enumeration


class LimitExceeded(RuntimeError):
    """An exhaustive enumeration was refused because n exceeds the limit."""


@dataclass(frozen=True, eq=False)
class BivariatePolynomial:
    """
    Nonnegative integer polynomial in x and q, stored as a sparse map
    (x_degree, q_degree) -> coefficient with no zero entries.
    """

    n: int
    terms: dict[tuple[int, int], int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def coefficient(self, x_degree: int, q_degree: int) -> int:
        return self.terms.get((x_degree, q_degree), 0)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def max_x_degree(self) -> int:
        return max(x for x, _ in self.terms)

    def max_q_degree(self, x_degree: int) -> int:
        """Highest q-degree present at the given x-degree; -1 when absent."""
        return max((q for x, q in self.terms if x == x_degree), default=-1)

    def q_coefficients(self, x_degree: int) -> dict[int, int]:
        """q_degree -> coefficient at the given x-degree."""
        return {q: c for (x, q), c in self.terms.items() if x == x_degree}

    def at_q_one(self) -> list[int]:
        """Coefficient list by x-degree after setting q = 1."""
        out = [0] * (self.max_x_degree() + 1)
        for (x, _), c in self.terms.items():
            out[x] += c
        return out

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(x, q, c) triples sorted by x ascending, then q descending."""
        return sorted(
            ((x, q, c) for (x, q), c in self.terms.items()),
            key=lambda t: (t[0], -t[1]),
        )

    def json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"x": x, "q": q, "c": c} for x, q, c in self.sorted_terms()],
        }

    def csv_rows(self) -> list[str]:
        return ["x,q,c"] + [f"{x},{q},{c}" for x, q, c in self.sorted_terms()]


@dataclass(frozen=True)
class WdSeries:
    """Stabilized coefficient series for a fixed descent count d."""

    d: int
    coefficients: tuple[int, ...]

    def json_dict(self) -> dict:
        return {"d": self.d, "coefficients": list(self.coefficients)}


def maxwt(n: int, d: int) -> int:
    """
    Maximum weight of a length-n permutation with d descents: d(n - d - 1).

    >>> maxwt(6, 2)
    6
    """
    if not 0 <= d <= n - 1:
        raise ValueError(f"descent count {d} outside 0..{n - 1}")
    return d * (n - d - 1)


def _check_limit(n: int, max_n: int) -> None:
    if n > max_n:
        raise LimitExceeded(f"n={n} exceeds the exhaustive limit {max_n}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def eulerian_polynomial(n: int, max_n: int = DEFAULT_MAX_N) -> list[int]:
    """
    Coefficient list of the Eulerian polynomial: entry d counts the
    permutations of length n with d descents.

    >>> eulerian_polynomial(4)
    [1, 11, 11, 1]
    """
    _check_limit(n, max_n)
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


_Q_CACHE: dict[int, BivariatePolynomial] = {}


def clear_cache() -> None:
    _Q_CACHE.clear()


def q_eulerian(
    n: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> BivariatePolynomial:
    """
    The q-Eulerian polynomial of order n: coefficient of x^d q^w counts
    permutations with d descents and weight w.  Results are cached per n.

    >>> q_eulerian(3).terms == {(0, 0): 1, (1, 1): 1, (1, 0): 3, (2, 0): 1}
    True
    """
    _check_limit(n, max_n)
    cached = _Q_CACHE.get(n)
    if cached is not None:
        return cached
    tasks = [(n, first) for first in range(1, n + 1)]
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
    poly = BivariatePolynomial(n, dict(merged))
    assert poly.coefficient_sum() == math.factorial(n)
    _Q_CACHE[n] = poly
    return poly


def stabilization_values(
    d: int, k: int, n_max: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> list[tuple[int, int]]:
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
    _check_limit(n_max, max_n)
    return [
        (n, q_eulerian(n, max_n=max_n, workers=workers).coefficient(d, maxwt(n, d) - k))
        for n in range(threshold, n_max + 1)
    ]


def check_stabilization(
    d: int, k: int, n_max: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> bool:
    """
    True when the coefficient of x^d q^{maxwt(n,d)-k} is the same for every
    n from d+k+1 through n_max.
    """
    vals = [c for _, c in stabilization_values(d, k, n_max, max_n, workers)]
    return all(c == vals[0] for c in vals)


def wd_coefficient(
    d: int, k: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> int:
    """
    Coefficient a_k of the stabilized series for descent count d, read at
    the threshold order n = d+k+1.

    >>> wd_coefficient(2, 3)
    31
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = d + k + 1
    if n > max_n:
        raise LimitExceeded(
            f"coefficient a_{k} of the d={d} series needs n={n}, above the limit {max_n}"
        )
    return q_eulerian(n, max_n=max_n, workers=workers).coefficient(d, maxwt(n, d) - k)


def wd_series(
    d: int, terms: int, max_n: int = DEFAULT_MAX_N, workers: int = 1
) -> WdSeries:
    """
    The first ``terms`` stabilized coefficients [a_0 .. a_{terms-1}] for
    descent count d.

    >>> wd_series(1, 6).coefficients
    (1, 3, 7, 15, 31, 63)
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if d + terms > max_n:
        raise LimitExceeded(
            f"{terms} terms of the d={d} series need n={d + terms}, above the limit {max_n}"
        )
    coeffs = tuple(
        wd_coefficient(d, k, max_n=max_n, workers=workers) for k in range(terms)
    )
    return WdSeries(d, coeffs)


def format_bivariate(poly: BivariatePolynomial) -> str:
    """
    Human-readable rendering, x-degrees ascending and q-degrees descending:
    "1 + x(q + 3) + x^2".
    """

    def q_term(q: int, c: int) -> str:
        if q == 0:
            return str(c)
        qs = "q" if q == 1 else f"q^{q}"
        return qs if c == 1 else f"{c}{qs}"

    parts = []
    for x in range(poly.max_x_degree() + 1):
        qc = poly.q_coefficients(x)
        if not qc:
            continue
        inner = " + ".join(q_term(q, qc[q]) for q in sorted(qc, reverse=True))
        if x == 0:
            parts.append(inner)
        else:
            xs = "x" if x == 1 else f"x^{x}"
            parts.append(xs if inner == "1" else f"{xs}({inner})")
    return " + ".join(parts)
