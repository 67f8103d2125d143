"""
The slow definitional routes, kept as test oracles, and one walk of S_1..S_8
that holds the package's routes equal to them.

The oracles read a word, a tree or a parent array the long way: descents by
a scan, maxmin trees by deleting minima, the block split by slicing letters,
the minimum decomposition by explicit children lists.  ``walk(n)`` builds
the trees and runs the routes of every permutation of 1..n once, checks them
against each other by every check named in CHECKS, and keeps what the tests
read: the permutation, its parent tuple, its (descents, weight) and the
checks it fails.  The walk is cached, so the tests that read it share one
pass over S_1..S_8; ``faults(check)`` lists the permutations a check fails.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Sequence

from maxmintrees.bijection import stable_region
from maxmintrees.mindecomp import build_min_decomp, leaves, weight_via_leaves
from maxmintrees.perms import extend
from maxmintrees.trees import (
    MaxminTree,
    _local_maxima,
    build_max_weight_tree,
    decompose_blocks,
    subtree,
    weight_via_descent_sums,
)
from maxmintrees.weights import descents_and_weight, range_details, weight_accelerated
from sample_words import all_perms

# ------------------------------------------------------------------ words


def descent_positions(p: Sequence[int]) -> tuple[int, ...]:
    """All descent positions of p, ascending: i with p_i > p_{i+1}."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def descent_count(p: Sequence[int]) -> int:
    """Number of descents of p."""
    return len(descent_positions(p))


def descent_values(p: Sequence[int]) -> frozenset[int]:
    """The labels sitting at descent positions of p."""
    return frozenset(p[i - 1] for i in descent_positions(p))


# ------------------------------------------------------------ maxmin trees


def is_maxmin(t: MaxminTree) -> bool:
    """True when every node of t is a strict local max or strict local min."""
    for v in range(1, t.node_count + 1):
        ns = t.neighbors[v]
        if ns and not (ns[0] > v or ns[-1] < v):
            return False
    return True


def tree_descents(t: MaxminTree) -> int:
    """
    Number of local maxima of t.  For the tree of a permutation p this is
    descent_count(p) + 1: the appended node n+1 always tops the tree.
    """
    return len(_local_maxima(range(1, t.node_count + 1), t.neighbors))


def weight_recursive(t: MaxminTree) -> int:
    """
    The weight of a maxmin tree, by the defining recursion: delete the
    minimal node m; for each resulting component, count the local maxima
    smaller than the node that was attached to m, and add the component's
    own weight.  A single node weighs 0.  The components wait on a work
    stack, so words of any length fit.
    """
    neighbors = t.neighbors
    total = 0
    work = [set(range(1, t.node_count + 1))]
    while work:
        rest = work.pop()
        m = min(rest)
        rest.discard(m)
        for u in neighbors[m]:
            if u not in rest:
                continue
            comp, stack = {u}, [u]
            while stack:
                for y in neighbors[stack.pop()]:
                    if y in rest and y not in comp:
                        comp.add(y)
                        stack.append(y)
            rest -= comp
            total += sum(1 for v in _local_maxima(comp, neighbors) if v < u)
            if len(comp) > 1:
                work.append(comp)
    return total


def min_decomp_of_tree(t: MaxminTree) -> tuple[int, ...]:
    """
    The minimum decomposition of any tree, by union-find: add the labels
    in descending order, and hang the minimum of each larger neighbour's
    component under the new label, which becomes its component's minimum.
    """
    m = t.node_count
    comp = list(range(m + 1))

    def find(u):
        while comp[u] != u:
            comp[u] = u = comp[comp[u]]
        return u

    parent = [0] * (m + 1)
    for v in range(m, 0, -1):
        for u in t.neighbors[v]:
            if u > v:
                low = find(u)  # each component is represented by its minimum
                parent[low] = v
                comp[low] = v
    return tuple(parent)


# --------------------------------------------------------- the block split


def reference_blocks(seg: Sequence[int]) -> list:
    """The left part of seg cut by repeated maxima, then the right part."""
    i = seg.index(min(seg))
    left, blocks = seg[:i], []
    while left:
        j = left.index(max(left)) + 1
        blocks.append(left[:j])
        left = left[j:]
    if seg[i + 1 :]:
        blocks.append(seg[i + 1 :])
    return blocks


def reference_trees(p: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """
    (max-weight edges, min-decomposition parents) by recursion on letter
    slices: each segment minimum joins the max and the min of every block.
    """
    edges, parent = set(), [0] * (len(p) + 2)
    stack = [p + (len(p) + 1,)]  # an explicit stack: words nest 2000 deep
    while stack:
        seg = stack.pop()
        m = min(seg)
        for block in reference_blocks(seg):
            edges.add((m, max(block)))
            parent[min(block)] = m
            if len(block) > 1:
                stack.append(block)
    return tuple(sorted(edges)), tuple(parent)


def block_segments(p: Sequence[int]) -> list[tuple[int, int]]:
    """Every segment of the recursive block split of positions 1..n+1."""
    ext = extend(p)
    segments, stack = [], [(1, len(p) + 1)]
    while stack:
        a, b = stack.pop()
        segments.append((a, b))
        if a < b:
            stack += decompose_blocks(ext, (a, b))[1]
    return sorted(segments)


def all_subtrees(t: MaxminTree) -> list[frozenset[int]]:
    """subtree(t, v) for every label v, indexed by label (0 holds the empty set)."""
    return [frozenset()] + [subtree(t, v) for v in range(1, t.node_count + 1)]


def subtree_rows(p: Sequence[int], subtrees: Sequence[frozenset[int]]) -> list[dict]:
    """range_details rows built from the tree definition: the positions of
    subtrees[sigma_i] for every non-descent i, where subtrees is
    all_subtrees of the max-weight tree of p."""
    ext = extend(p)
    where = {v: k for k, v in enumerate(ext)}
    rows = []
    for i in range(1, len(p) + 1):
        if ext[i] > ext[i + 1]:
            continue
        spots = sorted(where[v] for v in subtrees[ext[i]])
        lo, hi = spots[0], spots[-1]
        assert hi - lo + 1 == len(spots), (p, i)  # a subtree fills a range
        rows.append({
            "position": i,
            "value": ext[i],
            "range": [lo, hi],
            "descents": sum(ext[k] > ext[k + 1] for k in range(lo, hi + 1)),
        })
    return rows


# ------------------------------------------- minimum decompositions as lists


def children(parent: Sequence[int]) -> list[list[int]]:
    """The children of every label, ascending, indexed by label."""
    kids = [[] for _ in parent]
    for v in range(2, len(parent)):
        kids[parent[v]].append(v)
    return kids


def descendants(kids: Sequence[Sequence[int]], v: int) -> frozenset[int]:
    """All labels strictly below v."""
    out, stack = set(), list(kids[v])
    while stack:
        u = stack.pop()
        out.add(u)
        stack.extend(kids[u])
    return frozenset(out)


def childless(kids: Sequence[Sequence[int]]) -> frozenset[int]:
    """The labels without children."""
    return frozenset(v for v in range(1, len(kids)) if not kids[v])


def leaf_counts(kids: Sequence[Sequence[int]]) -> list[int]:
    """The leaves among each label and its descendants, indexed by label."""
    tips = childless(kids)
    return [0] + [len(tips & (descendants(kids, v) | {v})) for v in range(1, len(kids))]


def weight_via_children(kids: Sequence[Sequence[int]]) -> int:
    """Sum over stem nodes of the number of leaves below each, minus n."""
    tips = childless(kids)
    stem_total = sum(len(tips & descendants(kids, v)) for v in range(1, len(kids)) if kids[v])
    return stem_total - (len(kids) - 2)


def moved_up(parent: Sequence[int], leaf: int) -> tuple[int, ...]:
    """The parent tuple with ``leaf`` reattached to its grandparent."""
    moved = list(parent)
    moved[leaf] = parent[parent[leaf]]
    return tuple(moved)


# ---------------------------------------------------------------- the walk

ORDERS = range(1, 9)
CHECKS = (
    "weight routes",  # the five routes and the tree's subtree ranges give one weight
    "descents",  # the kernel's count, the scan's, and the tree's local maxima - 1
    "maxmin",  # the max-weight tree is maxmin
    "neighbors",  # ascend, whatever the edge order given
    "slice recursion",  # both trees, from letter slices
    "range rows",  # range_details is subtree_rows: each range holds a subtree
    "laminar ranges",  # the ranges of two non-descents nest or are disjoint
    "block segments",  # the split's segments: the ranges and one per descent
    "block maxima",  # every block of the split ends at its maximum
    "parent tuple",  # a tuple, rooted at 1, every parent below its child
    "subtrees",  # a label's subtree is itself and its descendants
    "leaves",  # the descent values and n+1
    "moved leaf",  # a leaf moved up one stem level sheds one unit of weight
    "path stems",  # near-maximal weight in the stable region makes a path stem
)


class Word(NamedTuple):
    p: tuple[int, ...]
    parent: tuple[int, ...]  # build_min_decomp(p)
    descents: int
    weight: int
    faults: tuple[str, ...]  # the CHECKS that p fails


def _word(p: tuple[int, ...]) -> Word:
    n = len(p)
    ext = extend(p)
    t = build_max_weight_tree(p)
    parent = build_min_decomp(p)
    kids = children(parent)
    tips = leaves(parent)
    stem = frozenset(range(1, n + 2)) - tips
    d, w = descents_and_weight(p)
    subtrees = all_subtrees(t)  # once per label, for the range rows and the subtrees check
    rows, tree_rows = range_details(p), subtree_rows(p, subtrees)
    ranges = [tuple(r["range"]) for r in rows]
    segments = block_segments(p)
    stem_kids = [sum(c in stem for c in kids[v]) for v in stem]
    checks = {
        "weight routes": {
            weight_recursive(t), weight_via_descent_sums(t), weight_accelerated(p),
            weight_via_leaves(parent), sum(r["descents"] for r in tree_rows) - n,
        } == {w},
        "descents": descent_count(p) == d == tree_descents(t) - 1,
        "maxmin": is_maxmin(t),
        "neighbors": all(list(ns) == sorted(ns) for ns in t.neighbors)
        and MaxminTree(n + 1, reversed(t.edges)).neighbors == t.neighbors,
        "slice recursion": reference_trees(p) == (t.edges, parent),
        "range rows": rows == tree_rows,
        "laminar ranges": all(
            b < c or f < a or (a <= c and f <= b) or (c <= a and b <= f)
            for (a, b), (c, f) in itertools.combinations(ranges, 2)
        ),
        "block segments": segments
        == sorted(ranges + [(i, i) for i in range(1, n + 2) if ext[i] > ext[i + 1]]),
        "block maxima": all(ext[b] == max(ext[a : b + 1]) for a, b in segments),
        "parent tuple": type(parent) is tuple and parent[:2] == (0, 0)
        and all(1 <= parent[v] < v for v in range(2, n + 2)),
        "subtrees": all(descendants(kids, v) | {v} == subtrees[v] for v in range(1, n + 2)),
        "leaves": tips == descent_values(p) | {n + 1},
        "moved leaf": all(
            weight_via_leaves(moved_up(parent, leaf)) == w - 1
            for leaf in tips
            if parent[leaf] != 1 and len(kids[parent[leaf]]) >= 2
        ),
        "path stems": not (d >= 1 and stable_region(n, d) and w == (n - d - 1) * (d - 1))
        or (max(stem_kids) <= 1 and sum(stem_kids) == len(stem) - 1),
    }
    assert tuple(checks) == CHECKS
    return Word(p, parent, d, w, tuple(name for name, ok in checks.items() if not ok))


@functools.cache
def walk(n: int) -> tuple[Word, ...]:
    """Every permutation of 1..n, in lexicographic order, run through CHECKS."""
    return tuple(map(_word, all_perms(n)))


def faults(check: str) -> list[tuple[int, ...]]:
    """The first ten permutations of S_1..S_8 that fail ``check``."""
    if check not in CHECKS:
        raise KeyError(check)
    return [w.p for n in ORDERS for w in walk(n) if check in w.faults][:10]
