"""
Independent references and output checks for the benchmark.

Every op is checked after the timed region by a route that shares no code
with the route the op timed:

* weights against the benchmark's own linear stack pass and, up to 1e5
  letters, against ``weight_via_leaves`` of the library's minimum
  decomposition (the word's ``fast`` and ``range`` ops are each held to
  both, so they are also held to each other);
* trees by invariants: n+1 nodes and n edges forming one tree; for
  max-weight trees every node a strict local max or min and a descent-sum
  weight equal to the reference; for minimum
  decompositions every child above its parent, root 1, leaves equal to the
  descent values plus n+1, and a leaf-count weight equal to the reference;
* polynomials against the coefficient sum n!, the Eulerian numbers from
  their own recurrence and the known heads of the stabilized series;
* T(n, k) against the generating function prod_i 1/(1 - (1+y) z^i),
  expanded here by a DP.

``check_op`` returns an empty string for a correct output and a reason
otherwise; the runner counts every reason as a failed op.  This module is
stdlib only so that the checks do not lean on the code they check.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

# heads of the stabilized coefficient series w_d, from the paper
W_HEADS = {
    1: (1, 3, 7, 15, 31, 63),
    2: (1, 4, 11, 31, 65, 157),
    3: (1, 5, 16, 41, 112, 244),
    4: (1, 6, 22, 63, 155, 393),
}


# ---------------------------------------------------------------- references


def eulerian_numbers(n: int) -> list[int]:
    """A(n, k) for k = 0..n-1 by A(n, k) = (k+1)A(n-1, k) + (n-k)A(n-1, k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if k else 0)
            for k in range(m)
        ]
    return row


@lru_cache(maxsize=None)
def t_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n_max of T(n, k) = [z^n y^k] prod_i 1/(1 - (1+y) z^i)."""
    rows = [[1]] + [[0] * (n + 1) for n in range(1, n_max + 1)]
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            dst = rows[n]
            for k, c in enumerate(rows[n - part]):
                dst[k] += c
                dst[k + 1] += c
    return tuple(tuple(r) for r in rows)


def t_value(n: int, k: int) -> int:
    return t_rows(max(n, 50))[n][k] if 0 <= k <= n else 0


@lru_cache(maxsize=None)
def partitions_by_length(n_max: int) -> tuple[tuple[int, ...], ...]:
    """p[n][l]: partitions of n into exactly l parts."""
    p = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    p[0][0] = 1
    for n in range(1, n_max + 1):
        for length in range(1, n + 1):
            p[n][length] = p[n - 1][length - 1] + p[n - length][length]
    return tuple(tuple(r) for r in p)


def length_multiset(n: int, k: int) -> dict[int, int]:
    """length -> number of partitions of n with that many parts, lengths >= k."""
    row = partitions_by_length(max(n, 50))[n]
    return {length: c for length, c in enumerate(row) if length >= k and c}


def own_weight(p) -> int:
    """
    Weight of p by one monotonic-stack pass over the extended word.

    For a non-descent i the subtree range is (max(M, L), m] with m the
    argmax strictly between i and its next smaller value, M the nearest
    greater value left of m and L the nearest smaller value left of i.  Each
    stack entry carries the argmax of the positions between it and the entry
    above it, so m falls out when i is popped.
    """
    n = len(p)
    ext = [n + 2, *p, n + 1, 0]
    size = n + 3
    desc = [0] * size  # desc[k]: descents among positions 1..k
    for k in range(1, n + 2):
        desc[k] = desc[k - 1] + (ext[k] > ext[k + 1])
    between = [-1] * size
    m_of = [0] * size
    psl = [0] * size
    stack: list[int] = []
    for t in range(size):
        v = ext[t]
        acc = -1  # argmax of [lowest popped entry, t)
        while stack and ext[stack[-1]] > v:
            e = stack.pop()
            a = between[e]
            if acc >= 0 and (a < 0 or ext[acc] > ext[a]):
                a = acc
            m_of[e] = a
            acc = e if a < 0 or ext[e] > ext[a] else a
        if stack:
            b = stack[-1]
            psl[t] = b
            a = between[b]
            if acc >= 0 and (a < 0 or ext[acc] > ext[a]):
                between[b] = acc
        stack.append(t)
    pgl = [0] * size
    stack.clear()
    for t in range(size):
        v = ext[t]
        while stack and ext[stack[-1]] < v:
            stack.pop()
        if stack:
            pgl[t] = stack[-1]
        stack.append(t)
    total = 0
    for i in range(1, n + 1):
        if ext[i] < ext[i + 1]:
            m = m_of[i]
            lo = max(pgl[m], psl[i])
            total += desc[m] - desc[lo]
    return total - n


def descent_values(p) -> set[int]:
    return {p[i] for i in range(len(p) - 1) if p[i] > p[i + 1]}


# ------------------------------------------------------------------- parsers


def _result(out: str) -> dict:
    """The payload of a JSON envelope."""
    return json.loads(out)["result"]


def parse_bivariate(text: str) -> dict[tuple[int, int], int]:
    """Terms of a polynomial rendered like '1 + x(q^2 + 3q + 7) + x^3'."""
    parts, depth, cur = [], 0, []
    for ch in text.strip():
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    terms: dict[tuple[int, int], int] = {}
    for part in map(str.strip, parts):
        m = re.fullmatch(r"x(?:\^(\d+))?(?:\((.*)\))?", part)
        x, inner = (int(m[1] or 1), m[2] or "1") if m else (0, part)
        for term in inner.split("+"):
            mm = re.fullmatch(r"(\d*)(q(?:\^(\d+))?)?", term.strip())
            if not mm or not (mm[1] or mm[2]):
                raise ValueError(f"bad term {term!r}")
            c = int(mm[1]) if mm[1] else 1
            q = (int(mm[3]) if mm[3] else 1) if mm[2] else 0
            if (x, q) in terms:
                raise ValueError(f"repeated term x^{x} q^{q}")
            terms[(x, q)] = c
    return terms


def _poly_terms(out: str, fmt: str) -> dict[tuple[int, int], int]:
    if fmt == "json":
        return {(t["x"], t["q"]): t["c"] for t in _result(out)["terms"]}
    if fmt == "csv":
        lines = out.split()
        if lines[0] != "x,q,c":
            raise ValueError("missing csv header")
        return {
            (x, q): c for x, q, c in (map(int, ln.split(",")) for ln in lines[1:])
        }
    return parse_bivariate(out)


def _int_list(out: str, fmt: str, key: str, sep: str) -> list[int]:
    if fmt == "json":
        return list(_result(out)[key])
    if fmt == "csv":
        return [int(ln.split(",")[1]) for ln in out.split()[1:]]
    return [int(x) for x in out.strip().split(sep)]


def _tree_edges(out: str, fmt: str, kind: str) -> tuple[list[tuple[int, int]], dict]:
    """(edges, json payload or {}); mindecomp edges are (parent, child)."""
    if fmt == "json":
        payload = json.loads(out)
        return [tuple(e) for e in payload["edges"]], payload
    lines = out.strip().splitlines()
    head = "digraph mindecomp {" if kind == "mindecomp" else "graph maxweight {"
    if lines[0] != head or lines[-1] != "}":
        raise ValueError("bad DOT frame")
    arrow = "->" if kind == "mindecomp" else "--"
    edges = []
    for ln in lines[1:-1]:
        a, b = ln.strip().rstrip(";").split(f" {arrow} ")
        edges.append((int(a), int(b)))
    return edges, {}


# -------------------------------------------------------------------- checks


def _find(root: list[int], v: int) -> int:
    """Union-find root of v, halving the path."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _check_weight_value(w: int, refs: list[int]) -> str:
    return "" if all(w == r for r in refs) else f"weight {w}, references {refs}"


def _check_explain(lines: list[str], p, refs: list[int]) -> str:
    n = len(p)
    ext = [n + 2, *p, n + 1]
    expected = [i for i in range(1, n + 1) if ext[i] < ext[i + 1]]
    pat = re.compile(r"position (\d+) \(value (\d+)\): range (\d+)\.\.(\d+), (\d+) descents")
    rows = [pat.fullmatch(ln) for ln in lines]
    if not all(rows):
        return "unparsable explain line"
    if [int(r[1]) for r in rows] != expected:
        return "explain positions are not the non-descents"
    if any(int(r[2]) != ext[int(r[1])] for r in rows):
        return "explain value does not match the word"
    if any(not 1 <= int(r[3]) <= int(r[4]) <= n + 1 for r in rows):
        return "explain range outside the word"
    return _check_weight_value(sum(int(r[5]) for r in rows) - n, refs)


def _check_tree(out: str, op: dict, p, refs: list[int]) -> str:
    n = len(p)
    kind, fmt = op["kind"], op["format"]
    edges, payload = _tree_edges(out, fmt, kind)
    if payload and payload.get("nodes") != list(range(1, n + 2)):
        return "node list is not 1..n+1"
    if len(edges) != n:
        return f"{len(edges)} edges for {n + 1} nodes"
    root = list(range(n + 2))
    nbr_min = [n + 2] * (n + 2)
    nbr_max = [0] * (n + 2)
    for a, b in edges:
        if not (1 <= a <= n + 1 and 1 <= b <= n + 1):
            return f"edge ({a}, {b}) outside 1..n+1"
        ra, rb = _find(root, a), _find(root, b)
        if ra == rb:
            return "edges contain a cycle"
        root[ra] = rb
        for u, v in ((a, b), (b, a)):
            nbr_min[u] = min(nbr_min[u], v)
            nbr_max[u] = max(nbr_max[u], v)
    if kind != "mindecomp":
        if any(not (nbr_min[v] > v or nbr_max[v] < v) for v in range(1, n + 2)):
            return "a node is neither a local max nor a local min"
        return _check_weight_value(descent_sum_weight(edges, n + 1), refs)
    children = [0] * (n + 2)
    for a, b in edges:
        if a >= b:
            return f"mindecomp edge {a} -> {b} points to a smaller label"
        children[a] += 1
    leaves = {v for v in range(1, n + 2) if not children[v]}
    if leaves != descent_values(p) | {n + 1}:
        return "leaves are not the descent values plus n+1"
    if payload and (payload.get("root") != 1 or payload.get("leaves") != sorted(leaves)):
        return "root or leaves field is wrong"
    # weight = sum over stem nodes of the leaves below them, minus n
    par = [0] * (n + 2)
    for a, b in edges:
        par[b] = a
    below = [0] * (n + 2)
    total = 0
    for v in range(n + 1, 0, -1):
        if v in leaves:
            below[v] = 1
        else:
            total += below[v]
        below[par[v]] += below[v]
    return _check_weight_value(total - n, refs)


def descent_sum_weight(edges, nodes: int) -> int:
    """
    Weight of a max-weight tree: over every local minimum v, the local maxima
    of subtree(v) (the nodes >= v connected to v), minus nodes - 1.  Adding
    nodes in falling label order with union-find makes each subtree(v) the
    component of v right after v is added.
    """
    nbrs: list[list[int]] = [[] for _ in range(nodes + 1)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    root = list(range(nodes + 1))
    maxima = [0] * (nodes + 1)
    total = 0
    for v in range(nodes, 0, -1):
        maxima[v] = int(max(nbrs[v]) < v)
        for u in nbrs[v]:
            if u > v:
                ru = _find(root, u)
                root[ru] = v
                maxima[v] += maxima[ru]
        if min(nbrs[v]) > v:
            total += maxima[v]
    return total - (nodes - 1)


def _check_stems(out: str, fmt: str, n: int, d: int) -> str:
    if fmt == "json":
        res = _result(out)
        records = [(r["stem"], r["count"], r["partition"]) for r in res["stems"]]
        total, t_line, ok = res["total"], res["t_value"], res["ok"]
    else:
        lines = out.strip().splitlines()
        records = []
        for ln in lines[:-2]:
            labels, rest = ln.split(":")
            records.append(([int(x) for x in labels.split()], int(rest.split()[0]), None))
        m = re.fullmatch(r"total (\d+), T\((\d+),(\d+)\) = (\d+)", lines[-2])
        if not m or (int(m[2]), int(m[3])) != (n - 1, d):
            return "unparsable stem total line"
        total, t_line, ok = int(m[1]), int(m[4]), lines[-1] == "OK"
    expected = t_value(n - 1, d)
    if not ok or total != expected or t_line != expected:
        return f"stem total {total}, T line {t_line}, expected {expected}"
    if len(records) != sum(length_multiset(n - 1, d).values()):
        return "stem count differs from the partitions of n-1 with >= d parts"
    seen_stems, seen_parts = set(), set()
    for stem, count, part in records:
        deficit = sum(x - i for i, x in enumerate(stem, start=1))
        if (
            len(stem) != n - d
            or stem[0] != 1
            or any(a >= b for a, b in zip(stem, stem[1:]))
            or stem[-1] > n
            or deficit > n - d - 1
        ):
            return f"stem {stem} is not admissible"
        if count != math.comb(n - 1 - deficit, d):
            return f"stem {stem} carries {count} trees"
        seen_stems.add(tuple(stem))
        if part is not None:
            if sum(part) != n - 1 or sorted(part, reverse=True) != part or min(part) < 1:
                return f"image {part} is not a partition of {n - 1}"
            if math.comb(len(part), d) != count:
                return f"image {part} does not match count {count}"
            seen_parts.add(tuple(part))
    if len(seen_stems) != len(records) or (fmt == "json" and len(seen_parts) != len(records)):
        return "stems or their images repeat"
    if sum(c for _, c, _ in records) != total:
        return "stem counts do not add up to the total"
    return ""


def _check_contributions(out: str, fmt: str, n: int, k: int) -> str:
    if fmt == "json":
        res = _result(out)
        value = res["value"]
        rows = [(tuple(r["partition"]), r["count"]) for r in res["contributions"]]
        for lam, c in rows:
            if sum(lam) != n or min(lam) < 1 or list(lam) != sorted(lam, reverse=True):
                return f"{lam} is not a partition of {n}"
            if c != math.comb(len(lam), k):
                return f"{lam} contributes {c}"
        if len({lam for lam, _ in rows}) != len(rows):
            return "a partition repeats"
        counts = sorted(c for _, c in rows)
    else:
        lines = out.strip().splitlines()
        value = int(lines[0])
        counts = sorted(int(ln.rsplit(" : ", 1)[1]) for ln in lines[1:])
    expected_counts = sorted(
        c for length, mult in length_multiset(n, k).items()
        for c in [math.comb(length, k)] * mult
    )
    if value != t_value(n, k) or counts != expected_counts:
        return f"contributions to T({n}, {k}) are wrong"
    return ""


def check_op(op: dict, out: str, words: dict, refs: dict) -> str:
    """Empty string when ``out`` is the correct output of ``op``, else a reason."""
    try:
        return _check(op, out, words, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"


def _check(op: dict, out: str, words: dict, refs: dict) -> str:
    cmd, fmt = op["cmd"], op.get("format", "text")
    if cmd == "weight":
        p, r = words[op["word"]], refs[op["word"]]
        lines = out.strip().splitlines()
        if op["explain"]:
            return _check_weight_value(int(lines[0]), r) or _check_explain(lines[1:], p, r)
        if len(lines) != 1:
            return f"weight output has {len(lines)} lines"
        return _check_weight_value(int(lines[0]), r)
    if cmd == "tree":
        return _check_tree(out, op, words[op["word"]], refs[op["word"]])
    if cmd == "eulerian":
        n = op["n"]
        if not op["q"]:
            got = _int_list(out, fmt, "coefficients", " ")
            return "" if got == eulerian_numbers(n) else f"Eulerian row {got}"
        terms = _poly_terms(out, fmt)
        if any(c <= 0 for c in terms.values()):
            return "non-positive coefficient"
        if sum(terms.values()) != math.factorial(n):
            return "coefficients do not sum to n!"
        marg = [0] * n
        for (x, q), c in terms.items():
            if not (0 <= x < n and 0 <= q <= x * (n - x - 1)):
                return f"term x^{x} q^{q} outside the support"
            marg[x] += c
        if marg != eulerian_numbers(n):
            return "q = 1 marginal is not the Eulerian row"
        for d, head in W_HEADS.items():
            for k in range(min(len(head), n - d)):
                if terms.get((d, d * (n - d - 1) - k), 0) != head[k]:
                    return f"stabilized coefficient d={d} k={k} is wrong"
        return ""
    if cmd == "wd":
        got = _int_list(out, fmt, "coefficients", ",")
        want = list(W_HEADS[op["d"]][: op["terms"]])
        return "" if got == want else f"w_{op['d']} head {got}, expected {want}"
    if cmd == "bijection":
        return _check_bijection(out, fmt, op["n_max"])
    if cmd == "stabilization":
        return _check_stabilization(out, fmt, op["d"], op["n_max"])
    if cmd == "triangle":
        if fmt == "json":
            rows = [list(r) for r in _result(out)["rows"]]
        else:
            sep = "," if fmt == "csv" else " "
            rows = [[int(x) for x in ln.split(sep)] for ln in out.strip().splitlines()]
        want = [list(r) for r in t_rows(max(op["n"], 50))[: op["n"] + 1]]
        return "" if rows == want else "triangle rows are wrong"
    if cmd == "tnk":
        n, k = op["n"], op["k"]
        if op["contributions"]:
            return _check_contributions(out, fmt, n, k)
        got = _result(out)["value"] if fmt == "json" else int(out)
        return "" if got == t_value(n, k) else f"T({n}, {k}) = {got}"
    if cmd == "stems":
        return _check_stems(out, fmt, op["n"], op["d"])
    if cmd == "crosscheck":
        if fmt == "json":
            res = _result(out)
            checked, ok = res["checked"], res["ok"] and not res["mismatches"]
        else:
            lines = out.strip().splitlines()
            checked, ok = int(lines[0].split()[1]), lines[1:] == ["OK"]
        if not ok or checked != op["cells"]:
            return f"crosscheck reported {checked} cells, ok={ok}"
        return ""
    raise KeyError(f"no check for {cmd}")


def _check_bijection(out: str, fmt: str, n_max: int) -> str:
    want = [(n, d) for n in range(2, n_max + 1) for d in range(1, n) if 2 * d >= n - 1]
    if fmt == "json":
        res = _result(out)
        rows = [
            (c["n"], c["d"], c["weight"], c["brute_count"], c["stem_total"], c["t_value"], c["pass"])
            for c in res["checks"]
        ]
        ok = res["ok"]
    else:
        lines = out.strip().splitlines()
        pat = re.compile(
            r"n=(\d+) d=(\d+) weight=(\d+): brute=(\d+) stems=(\d+) T\((\d+),(\d+)\)=(\d+) -> (PASS|FAIL)"
        )
        rows = []
        for ln in lines[:-1]:
            m = pat.fullmatch(ln)
            if not m or (int(m[6]), int(m[7])) != (int(m[1]) - 1, int(m[2])):
                return f"unparsable bijection line {ln!r}"
            rows.append((*map(int, m.groups()[:5]), int(m[8]), m[9] == "PASS"))
        ok = lines[-1] == "OK"
    if [(r[0], r[1]) for r in rows] != want or not ok:
        return "bijection sweep does not cover the stable region"
    for n, d, w, brute, stems, t, passed in rows:
        expected = t_value(n - 1, d)
        if w != (n - d - 1) * (d - 1) or not passed or not brute == stems == t == expected:
            return f"bijection at n={n} d={d} is wrong"
    return ""


def _check_stabilization(out: str, fmt: str, d: int, n_max: int) -> str:
    if fmt == "json":
        res = _result(out)
        rows = [(c["d"], c["k"], [tuple(v) for v in c["values"]], c["stable"]) for c in res["checks"]]
        ok = res["ok"]
    else:
        lines = out.strip().splitlines()
        rows = []
        for ln in lines[:-1]:
            m = re.fullmatch(r"d=(\d+) k=(\d+): (.*) -> (stable|NOT stable)", ln)
            if not m:
                return f"unparsable stabilization line {ln!r}"
            vals = [tuple(map(int, v[2:].split(":"))) for v in m[3].split(", ")]
            rows.append((int(m[1]), int(m[2]), vals, m[4] == "stable"))
        ok = lines[-1] == "OK"
    if not ok or [(r[0], r[1]) for r in rows] != [(d, k) for k in range(4)]:
        return "stabilization checks are missing"
    for _, k, vals, stable in rows:
        if not stable or vals != [(n, W_HEADS[d][k]) for n in range(d + k + 1, n_max + 1)]:
            return f"stabilization values for k={k} are wrong"
    return ""
