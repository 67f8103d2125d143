"""
Maxmin trees: construction from a permutation, subtrees, and the weight
as descent sums.

A maxmin tree is a labeled tree in which every node is a strict local
maximum (greater than all of its neighbors) or a strict local minimum.
A permutation sigma of length n owns a maxmin tree on the labels 1..n+1,
built by recursive block decomposition of the extended word:

  1. append n+1 to sigma;
  2. split the current segment at its minimum m into  left . m . right;
  3. cut the left part into blocks, each ending at the running maximum of
     what remains (so every block carries its own maximum at its right
     end); the right part, when present, is a single block for the same
     reason;
  4. connect m to the maximum of each block, then recurse inside each
     block.

``min_decomp_parents`` runs this split once and returns the minimum
decomposition: each block's minimum hangs under its segment's minimum.
The labels under a node v are exactly v's block, so the max-weight tree
joins each node's parent to the largest label under it.
``weight_via_descent_sums`` reads the weight off the subtrees of that tree;
like ``subtree``, it is a slow route that the linear ones in
:mod:`maxmintrees.weights` and :mod:`maxmintrees.mindecomp` are held to.
The weight by the defining recursion, the maxmin test and the count of
local maxima are test oracles, in tests/oracles.py.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .perms import ExtendedPermutation, Permutation, extend


class MaxminTree:
    """
    A labeled tree on nodes 1..node_count.

    Edges are stored canonically: (a, b) with a < b, sorted
    lexicographically; neighbor lists are sorted ascending.  The
    constructor enforces tree-ness (connected, acyclic), not that the
    labeling is maxmin, which is a property of the labels.
    """

    __slots__ = ("node_count", "edges", "_neighbors")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise ValueError(f"a tree needs at least one node, got {node_count}")
        canonical = sorted((a, b) if a < b else (b, a) for a, b in edges)
        if len(canonical) != node_count - 1:
            raise ValueError(
                f"a tree on {node_count} nodes needs {node_count - 1} edges, "
                f"got {len(canonical)}"
            )
        if canonical and (canonical[0][0] < 1 or max(b for _, b in canonical) > node_count):
            a, b = next(e for e in canonical if e[0] < 1 or e[1] > node_count)
            raise ValueError(f"edge ({a}, {b}) leaves the label range")
        # n-1 edges without a cycle form a connected tree; union-find with
        # path halving finds a cycle as an edge inside one component
        root = list(range(node_count + 1))
        for a, b in canonical:
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a == b:
                raise ValueError("edges do not form a connected tree")
            root[a] = b
        self.node_count = node_count
        self.edges = tuple(canonical)
        self._neighbors = None

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor labels of every node, indexed by label; built on first read."""
        if self._neighbors is None:
            nbrs: list[list[int]] = [[] for _ in range(self.node_count + 1)]
            for a, b in self.edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            # each node meets its smaller neighbors (edges (a, v), by a) before
            # its larger ones (edges (v, b), by b), so every list is ascending
            self._neighbors = tuple(tuple(ns) for ns in nbrs)
        return self._neighbors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxminTree):
            return NotImplemented
        return self.node_count == other.node_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"MaxminTree({self.node_count}, {list(self.edges)})"


def decompose_blocks(
    ext: ExtendedPermutation, segment: tuple[int, int]
) -> tuple[int, list[tuple[int, int]]]:
    """
    Split ``segment`` (inclusive positions into ``ext``) at its minimum and
    cut the left part, in one right-to-left pass, into blocks that end at
    its right-to-left maxima.  Returns the minimum's position and the
    blocks as inclusive position pairs in position order; the part right
    of the minimum, when there is one, is the last block.

    >>> decompose_blocks(extend((3, 1, 2)), (1, 4))
    (2, [(1, 1), (3, 4)])
    """
    lo, hi = segment
    n1 = len(ext) - 2  # last usable position: n+1
    if not (1 <= lo <= hi <= n1):
        raise ValueError(f"segment ({lo}, {hi}) outside positions 1..{n1}")
    mpos = ext.index(min(ext[lo : hi + 1]), lo)
    ends, top = [], 0
    for b in range(mpos - 1, lo - 1, -1):
        if ext[b] > top:
            ends.append(b)
            top = ext[b]
    ends.reverse()
    blocks = list(zip([lo] + [b + 1 for b in ends], ends))
    if mpos < hi:
        blocks.append((mpos + 1, hi))
    return mpos, blocks


def min_decomp_parents(ext: ExtendedPermutation) -> list[int]:
    """
    The minimum decomposition of the recursive split of positions 1..n+1,
    as a parent array indexed by label: every block's minimum hangs under
    its segment's minimum, and the root 1 has parent 0.  A block's minimum
    is the segment minimum of its own ``decompose_blocks`` call, or its
    only letter.

    >>> min_decomp_parents(extend((2, 1, 3)))
    [0, 0, 1, 1, 3]
    """
    parent = [0] * (len(ext) - 1)
    stack = [(1, len(ext) - 2, 0)]  # the whole word has no segment minimum
    while stack:
        a, b, seg_min = stack.pop()
        low = ext[a]
        if a < b:
            mpos, blocks = decompose_blocks(ext, (a, b))
            low = ext[mpos]
            stack += [(c, d, low) for c, d in blocks]
        parent[low] = seg_min
    return parent


def build_max_weight_tree(p: Permutation) -> MaxminTree:
    """
    The max-weight maxmin tree of p, on nodes 1..n+1: each node's parent in
    the minimum decomposition joined to the largest label under the node.

    >>> build_max_weight_tree((2, 1, 3)).edges
    ((1, 2), (1, 4), (3, 4))
    """
    parent = min_decomp_parents(extend(p))
    # children exceed their parents, so descending label order finishes
    # every node's largest label before its parent reads it
    top = list(range(len(parent)))
    for v in range(len(parent) - 1, 1, -1):
        if top[v] > top[parent[v]]:
            top[parent[v]] = top[v]
    edges = ((parent[v], top[v]) for v in range(2, len(parent)))
    return MaxminTree(len(p) + 1, edges)


def _local_maxima(members: Iterable[int], neighbors: Sequence[Sequence[int]]) -> list[int]:
    """Local maxima of the induced subtree on ``members``."""
    s = set(members)
    return [v for v in s if all(u < v for u in neighbors[v] if u in s)]


def subtree(t: MaxminTree, i: int) -> frozenset[int]:
    """
    The subtree of label i: the maximal connected node set containing i in
    which every node is >= i.

    >>> sorted(subtree(build_max_weight_tree((2, 1, 3)), 3))
    [3, 4]
    """
    if not 1 <= i <= t.node_count:
        raise ValueError(f"label {i} outside 1..{t.node_count}")
    comp = {i}
    stack = [i]
    while stack:
        for u in t.neighbors[stack.pop()]:
            if u >= i and u not in comp:
                comp.add(u)
                stack.append(u)
    return frozenset(comp)


def weight_via_descent_sums(t: MaxminTree) -> int:
    """
    The weight of a max-weight tree as descent sums: over every local
    minimum v, add the number of local maxima of subtree(t, v), then
    subtract node_count - 1.
    """
    total = 0
    for v in range(1, t.node_count + 1):
        ns = t.neighbors[v]
        if ns and ns[0] > v:  # local minimum
            comp = subtree(t, v)
            total += len(_local_maxima(comp, t.neighbors))
    return total - (t.node_count - 1)
