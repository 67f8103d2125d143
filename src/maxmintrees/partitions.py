"""
Integer partitions and the two-kind partition triangle.

T(n, k) counts partitions of n into parts of two kinds with exactly k
parts of the second kind.  It is computed partition by partition: a
partition with L parts contributes C(L, k) ways of choosing which parts
are of the second kind, so

    T(n, k) = sum over partitions of n of C(parts, k).

The triangle of these numbers is OEIS A256193; ``crosscheck_triangle``
compares a locally supplied copy (CSV rows or an OEIS-style b-file)
cell by cell against the computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """
    All partitions of n as weakly decreasing tuples, in decreasing
    lexicographic order.

    >>> list(enumerate_partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
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


def t_nk_contributions(n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """
    The nonzero per-partition contributions C(parts, k) to T(n, k), in
    enumeration order.

    >>> t_nk_contributions(8, 5)[-1]
    ((1, 1, 1, 1, 1, 1, 1, 1), 56)
    """
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
    if n < 0 or k < 0:
        raise ValueError(f"T({n}, {k}) undefined for negative arguments")
    return sum(math.comb(len(lam), k) for lam in enumerate_partitions(n))


@dataclass(frozen=True)
class PartitionTriangle:
    """Rows n = 0..n_max of T(n, k), k = 0..n."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def cell(self, n: int, k: int) -> int:
        return self.rows[n][k]

    @staticmethod
    def is_stable(n: int, k: int) -> bool:
        """Whether cell (n, k) feeds the stabilized coefficient series (2k >= n)."""
        return 2 * k >= n

    def csv_text(self) -> str:
        return "\n".join(",".join(str(c) for c in row) for row in self.rows) + "\n"

    def json_dict(self) -> dict:
        return {"n_max": self.n_max, "rows": [list(r) for r in self.rows]}


def t_triangle(n_max: int) -> PartitionTriangle:
    """
    The triangle T(n, k) for 0 <= k <= n <= n_max.

    >>> t_triangle(2).rows
    ((1,), (1, 1), (2, 3, 1))
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rows = []
    for n in range(n_max + 1):
        counts = [0] * (n + 1)
        for lam in enumerate_partitions(n):
            length = len(lam)
            for k in range(n + 1):
                counts[k] += math.comb(length, k)
        rows.append(tuple(counts))
    return PartitionTriangle(tuple(rows))


@dataclass(frozen=True)
class CellCheck:
    n: int
    k: int
    expected: int
    found: int

    @property
    def ok(self) -> bool:
        return self.expected == self.found


@dataclass(frozen=True)
class CrosscheckReport:
    cells: tuple[CellCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def mismatches(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.ok]

    def json_dict(self) -> dict:
        return {
            "checked": len(self.cells),
            "ok": self.ok,
            "mismatches": [
                {"n": c.n, "k": c.k, "expected": c.expected, "found": c.found}
                for c in self.mismatches()
            ],
        }


def read_triangle_csv(text: str) -> list[tuple[int, int, int]]:
    """
    Parse triangle rows from CSV text: line i holds row n = i-1.  Returns
    (n, k, value) triples.  Blank lines are ignored.
    """
    cells = []
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n + 1:
            raise ValueError(
                f"line {lineno}: expected {n + 1} entries for row n={n}, got {len(fields)}"
            )
        for k, f in enumerate(fields):
            try:
                cells.append((n, k, int(f)))
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer entry {f!r}") from None
        n += 1
    return cells


def read_bfile(text: str) -> list[tuple[int, int, int]]:
    """
    Parse an OEIS-style b-file: "index value" per line, indices consecutive
    and counting the triangle cells row-major from T(0, 0).  Lines starting
    with '#' and blank lines are ignored.
    """
    cells = []
    expected_idx = None
    pos = 0  # row-major cell counter
    n = k = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {line!r}")
        try:
            idx, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None
        if expected_idx is not None and idx != expected_idx:
            raise ValueError(
                f"line {lineno}: index {idx} not consecutive (expected {expected_idx})"
            )
        expected_idx = idx + 1
        cells.append((n, k, value))
        pos += 1
        if k == n:
            n += 1
            k = 0
        else:
            k += 1
    return cells


def crosscheck_triangle(file: str | Path, fmt: str = "auto") -> CrosscheckReport:
    """
    Compare a triangle file cell by cell against one computed triangle,
    t_triangle up to the largest n in the file.

    ``fmt`` is "csv", "bfile", or "auto" (sniffed: comma-bearing or
    single-entry lines mean CSV, two whitespace-separated fields mean
    b-file).
    """
    text = Path(file).read_text()
    if fmt == "auto":
        fmt = "csv"
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line and len(line.split()) == 2:
                fmt = "bfile"
            break
    if fmt == "csv":
        cells = read_triangle_csv(text)
    elif fmt == "bfile":
        cells = read_bfile(text)
    else:
        raise ValueError(f"unknown triangle format {fmt!r}")
    rows = t_triangle(max(n for n, _, _ in cells)).rows if cells else ()
    checks = tuple(
        CellCheck(n, k, expected=rows[n][k], found=value) for n, k, value in cells
    )
    return CrosscheckReport(checks)
