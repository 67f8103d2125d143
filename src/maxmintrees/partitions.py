"""
Integer partitions and the two-kind partition triangle.

T(n, k) counts partitions of n into parts of two kinds with exactly k
parts of the second kind.  It is computed partition by partition: a
partition with L parts contributes C(L, k) ways of choosing which parts
are of the second kind, so

    T(n, k) = sum over partitions of n of C(parts, k).

The number of partitions grows faster than any polynomial, so
``enumerate_partitions`` and ``t_triangle`` refuse n above
``MAX_PARTITION_N`` with ``LimitExceeded`` before enumerating anything.

The triangle of these numbers is OEIS A256193; ``crosscheck_triangle``
compares the text of a locally supplied copy (CSV rows or an OEIS-style
b-file, both with '#' comment lines allowed) cell by cell against the
computed values and returns the verdict as plain JSON-ready data: the cell
count, ok, and the mismatching cells.  Like every library function it
reads no file: the caller passes the text.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .eulerian import LimitExceeded
from .perms import abridged, abridged_int, ascii_int

# p(60) = 966,467 partitions; T(60, 30) already takes seconds to enumerate
MAX_PARTITION_N = 60


def _check_partition_limit(n: int) -> None:
    if n > MAX_PARTITION_N:
        raise LimitExceeded(
            f"partitions of n={abridged_int(n)} exceed the enumeration limit {MAX_PARTITION_N}"
        )


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """
    All partitions of n as weakly decreasing tuples, in decreasing
    lexicographic order.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"cannot partition {abridged_int(n)}")
    _check_partition_limit(n)
    if n == 0:
        yield ()
        return

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, max_part), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def _check_nk(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(
            f"T({abridged_int(n)}, {abridged_int(k)}) undefined for negative arguments"
        )


def t_nk_contributions(n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """
    The nonzero per-partition contributions C(parts, k) to T(n, k), in
    enumeration order; they sum to T(n, k).

    >>> t_nk_contributions(8, 5)[-1]
    ((1, 1, 1, 1, 1, 1, 1, 1), 56)
    """
    _check_nk(n, k)
    out = []
    for lam in enumerate_partitions(n):
        c = math.comb(len(lam), k)
        if c:
            out.append((lam, c))
    return out


def t_nk(n: int, k: int) -> int:
    """
    The two-kind partition count T(n, k).

    >>> t_nk(8, 5)
    92
    """
    _check_nk(n, k)
    return sum(math.comb(len(lam), k) for lam in enumerate_partitions(n))


class PartitionTriangle(NamedTuple):
    """Rows n = 0..n_max of T(n, k), k = 0..n."""

    rows: tuple[tuple[int, ...], ...]


def t_triangle(n_max: int) -> PartitionTriangle:
    """
    The triangle T(n, k) for 0 <= k <= n <= n_max.

    >>> t_triangle(2).rows
    ((1,), (1, 1), (2, 3, 1))
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {abridged_int(n_max)}")
    _check_partition_limit(n_max)
    rows = []
    for n in range(n_max + 1):
        counts = [0] * (n + 1)
        for lam in enumerate_partitions(n):
            length = len(lam)
            for k in range(n + 1):
                counts[k] += math.comb(length, k)
        rows.append(tuple(counts))
    return PartitionTriangle(tuple(rows))


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for every line of text that is
    neither blank nor a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_triangle_csv(text: str) -> list[tuple[int, int, int]]:
    """
    Parse triangle rows from CSV text: the i-th row line holds row n = i-1.
    Returns (n, k, value) triples.  Lines starting with '#' and blank lines
    are ignored.
    """
    cells = []
    n = 0
    for lineno, line in _data_lines(text):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n + 1:
            raise ValueError(
                f"line {lineno}: expected {n + 1} entries for row n={n}, got {len(fields)}"
            )
        for k, f in enumerate(fields):
            try:
                cells.append((n, k, ascii_int(f)))
            except OverflowError:
                raise ValueError(f"line {lineno}: entry {abridged(f)} too large") from None
            except ValueError:
                shown = abridged(f, repr)
                raise ValueError(f"line {lineno}: non-integer entry {shown}") from None
        n += 1
    return cells


def read_bfile(text: str) -> list[tuple[int, int, int]]:
    """
    Parse an OEIS-style b-file: "index value" per line, indices consecutive.
    Index i names cell i of the triangle read row-major from T(0, 0) = 0:
    row n with n(n+1)/2 <= i < (n+1)(n+2)/2, and k = i - n(n+1)/2.  Lines
    starting with '#' and blank lines are ignored.
    """

    def shown(line: str) -> str:
        """line as an error shows it: whole, unless a field is too long to echo."""
        return repr(line) if max(map(len, line.split())) <= 20 else abridged(line, repr)

    cells = []
    expected_idx = None
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {shown(line)}")
        try:
            idx, value = ascii_int(fields[0]), ascii_int(fields[1])
        except OverflowError:
            raise ValueError(f"line {lineno}: too large a field in {shown(line)}") from None
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {shown(line)}") from None
        if expected_idx is not None and idx != expected_idx:
            raise ValueError(
                f"line {lineno}: index {idx} not consecutive (expected {expected_idx})"
            )
        if idx < 0:
            raise ValueError(f"line {lineno}: negative index {idx}")
        expected_idx = idx + 1
        n = (math.isqrt(8 * idx + 1) - 1) // 2
        cells.append((n, idx - n * (n + 1) // 2, value))
    return cells


def crosscheck_triangle(text: str, fmt: str = "auto") -> dict:
    """
    Compare the text of a triangle file cell by cell against one computed
    triangle, t_triangle up to the largest n in the text.  Returns
    {"checked": cell count, "ok": bool, "mismatches": [{"n", "k",
    "expected", "found"}, ...]} with the mismatches in file order.

    ``fmt`` is "csv", "bfile", or "auto" (sniffed: comma-bearing or
    single-entry lines mean CSV, two whitespace-separated fields mean
    b-file).  A text without cells is refused: a check that compares
    nothing must not pass, and so is a cell with more digits than int()
    reads, which errors show by its first 20 characters and its length.
    """
    if fmt == "auto":
        # the first data line decides; a file without one sniffs as CSV
        _, first = next(_data_lines(text), (0, ""))
        fmt = "bfile" if "," not in first and len(first.split()) == 2 else "csv"
    if fmt == "csv":
        cells = read_triangle_csv(text)
    elif fmt == "bfile":
        cells = read_bfile(text)
    else:
        raise ValueError(f"unknown triangle format {fmt!r}")
    if not cells:
        raise ValueError("no triangle cells to check")
    rows = t_triangle(max(n for n, _, _ in cells)).rows
    mismatches = [
        {"n": n, "k": k, "expected": rows[n][k], "found": value}
        for n, k, value in cells
        if rows[n][k] != value
    ]
    return {"checked": len(cells), "ok": not mismatches, "mismatches": mismatches}
