"""
Maxmin trees: construction from a permutation and the definitional weight
computations.

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

``block_walk`` runs this split once and both trees are read off it: joining
each block at its maximum gives the heaviest tree the construction can
produce, joining it at its minimum the minimum decomposition.  The weight
functions here are the slow, trusted references that the faster algorithms
in :mod:`maxmintrees.weights` and :mod:`maxmintrees.mindecomp` are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .perms import ExtendedPermutation, Permutation, extend


class MaxminTree:
    """
    A labeled tree on nodes 1..node_count.

    Edges are stored canonically: (a, b) with a < b, sorted
    lexicographically; neighbor lists are sorted ascending.  The
    constructor enforces tree-ness (connected, acyclic); whether the
    labeling is maxmin is a property of the labels and is checked
    separately by :func:`is_maxmin`.
    """

    __slots__ = ("node_count", "edges", "neighbors")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        canonical = sorted((a, b) if a < b else (b, a) for a, b in edges)
        if len(canonical) != node_count - 1:
            raise ValueError(
                f"a tree on {node_count} nodes needs {node_count - 1} edges, "
                f"got {len(canonical)}"
            )
        nbrs: list[list[int]] = [[] for _ in range(node_count + 1)]
        for a, b in canonical:
            if not (1 <= a <= node_count and 1 <= b <= node_count):
                raise ValueError(f"edge ({a}, {b}) leaves the label range")
            nbrs[a].append(b)
            nbrs[b].append(a)
        # connectivity: n-1 edges + connected  =>  acyclic
        if node_count > 0:
            seen = [False] * (node_count + 1)
            stack = [1]
            seen[1] = True
            reached = 1
            while stack:
                for u in nbrs[stack.pop()]:
                    if not seen[u]:
                        seen[u] = True
                        reached += 1
                        stack.append(u)
            if reached != node_count:
                raise ValueError("edges do not form a connected tree")
        self.node_count = node_count
        self.edges = tuple(canonical)
        self.neighbors = tuple(tuple(sorted(ns)) for ns in nbrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxminTree):
            return NotImplemented
        return self.node_count == other.node_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"MaxminTree({self.node_count}, {list(self.edges)})"

    def json_dict(self) -> dict:
        return {
            "nodes": list(range(1, self.node_count + 1)),
            "edges": [list(e) for e in self.edges],
        }


@dataclass(frozen=True)
class BlockDecomposition:
    """
    One splitting step of a segment of the extended word.

    ``min_position`` locates the segment minimum; ``left_blocks`` are the
    position intervals covering everything left of it, each ending at the
    running maximum of the remaining left part; ``right_block`` covers
    everything right of the minimum (absent when the minimum is the
    segment's last element).  All intervals are inclusive position pairs.
    """

    min_position: int
    left_blocks: tuple[tuple[int, int], ...]
    right_block: tuple[int, int] | None


def decompose_blocks(
    ext: ExtendedPermutation, segment: tuple[int, int]
) -> BlockDecomposition:
    """
    Split ``segment`` (inclusive positions into ``ext``) at its minimum and
    cut the left part, in one right-to-left pass, into blocks that end at
    its right-to-left maxima.
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
    left_blocks = tuple(zip([lo] + [b + 1 for b in ends], ends))
    right_block = (mpos + 1, hi) if mpos < hi else None
    return BlockDecomposition(mpos, left_blocks, right_block)


def block_walk(ext: ExtendedPermutation) -> Iterator[tuple[int, int, int]]:
    """
    One (segment minimum, block minimum, block maximum) letter triple per
    block of the recursive split of positions 1..n+1, in no set order.  A
    block's minimum is that of its own ``decompose_blocks`` call, or its
    only letter.

    >>> sorted(block_walk(extend((2, 1, 3))))
    [(1, 2, 2), (1, 3, 4), (3, 4, 4)]
    """
    stack = [(1, len(ext) - 2, 0)]  # the whole word has no segment minimum
    while stack:
        a, b, seg_min = stack.pop()
        low = ext[a]
        if a < b:
            dec = decompose_blocks(ext, (a, b))
            low = ext[dec.min_position]
            stack += [(c, d, low) for c, d in dec.left_blocks]
            if dec.right_block is not None:
                stack.append((*dec.right_block, low))
        if seg_min:
            # every block carries its maximum at its right end
            assert ext[b] == max(ext[a : b + 1]), (ext, (a, b))
            yield seg_min, low, ext[b]


def build_max_weight_tree(p: Permutation) -> MaxminTree:
    """
    The max-weight maxmin tree of p, on nodes 1..n+1.

    >>> build_max_weight_tree((2, 1, 3)).edges
    ((1, 2), (1, 4), (3, 4))
    """
    edges = ((seg_min, top) for seg_min, _, top in block_walk(extend(p)))
    return MaxminTree(len(p) + 1, edges)


def is_maxmin(t: MaxminTree) -> bool:
    """True when every node of t is a strict local max or strict local min."""
    for v in range(1, t.node_count + 1):
        ns = t.neighbors[v]
        if ns and not (ns[0] > v or ns[-1] < v):
            return False
    return True


def _local_maxima(members: Iterable[int], neighbors: Sequence[Sequence[int]]) -> list[int]:
    """Local maxima of the induced subtree on ``members``."""
    s = set(members)
    return [v for v in s if all(u < v for u in neighbors[v] if u in s)]


def tree_descents(t: MaxminTree) -> int:
    """
    Number of local maxima of t.

    For the tree of a permutation p this equals descent_count(p) + 1: the
    appended node n+1 always tops the tree.
    """
    return sum(
        1
        for v in range(1, t.node_count + 1)
        if not t.neighbors[v] or t.neighbors[v][-1] < v
    )


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


def weight_recursive(t: MaxminTree) -> int:
    """
    The weight of a maxmin tree, by the defining recursion.

    Delete the minimal node m; for each resulting component, count the
    local maxima smaller than the node that was attached to m, and add the
    component's own weight.  A single node weighs 0.
    """
    return _weight_rec(set(range(1, t.node_count + 1)), t.neighbors)


def _weight_rec(members: set[int], neighbors: Sequence[Sequence[int]]) -> int:
    if len(members) == 1:
        return 0
    m = min(members)
    rest = members - {m}
    total = 0
    for u in neighbors[m]:
        if u not in rest:
            continue
        comp = {u}
        stack = [u]
        while stack:
            for y in neighbors[stack.pop()]:
                if y in rest and y not in comp:
                    comp.add(y)
                    stack.append(y)
        rest -= comp
        total += sum(1 for v in _local_maxima(comp, neighbors) if v < u)
        total += _weight_rec(comp, neighbors)
    return total


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
