"""
Minimum decomposition trees.

The minimum decomposition of a permutation is the tree that the block split
itself builds (``trees.min_decomp_parents``): each segment minimum is the
parent of the minimum of every block it splits off.  The result is
naturally rooted at the global minimum 1, and every node's label is
smaller than all labels below it.  So the parent array is the whole tree:
one pass over the labels in descending order visits every node after all
nodes below it, and reads off the leaf counts behind the weight here and
the largest labels behind the max-weight tree in ``trees``.

Leaves (labels that are no node's parent) are exactly the descent values
of the permutation plus the appended n+1; the remaining nodes form the
stem.  The weight of the permutation is the sum, over stem nodes, of the
number of leaves below each, minus n.
"""

from __future__ import annotations

from typing import Sequence

from .perms import Permutation, extend
from .trees import min_decomp_parents


class MinDecompTree:
    """
    Rooted tree on labels 1..n+1 with root 1, kept as its parent array
    indexed by label (parent[1] == 0).  Every non-root label's parent is
    strictly smaller, which forces connectivity to the root.
    """

    __slots__ = ("parent",)

    def __init__(self, parent: Sequence[int]):
        parent = tuple(parent)
        if len(parent) < 2 or parent[1] != 0:
            raise ValueError("root must be label 1 with parent 0")
        for v, pv in enumerate(parent[2:], 2):
            if not 1 <= pv < v:
                raise ValueError(f"parent of {v} must lie in 1..{v - 1}, got {pv}")
        self.parent = parent

    def leaves(self) -> frozenset[int]:
        """The labels that are no node's parent."""
        return frozenset(range(1, len(self.parent))).difference(self.parent)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed parent -> child pairs, ordered by child label."""
        return tuple((self.parent[v], v) for v in range(2, len(self.parent)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinDecompTree):
            return NotImplemented
        return self.parent == other.parent

    def __hash__(self) -> int:
        return hash(self.parent)

    def __repr__(self) -> str:
        return f"MinDecompTree(parent={list(self.parent)})"


def build_min_decomp(p: Permutation) -> MinDecompTree:
    """
    The minimum decomposition tree of p, rooted at 1.

    >>> build_min_decomp((1, 3, 2)).edges
    ((1, 2), (2, 3), (2, 4))
    """
    return MinDecompTree(min_decomp_parents(extend(p)))


def _leaf_counts(parent: Sequence[int]) -> list[int]:
    """
    The number of leaves under every label, a leaf counting itself.
    Children exceed their parents, so in descending label order each count
    is complete before it is added into the parent's.  Entry 0, the root's
    parent, repeats the root's count.
    """
    below = [0] * len(parent)
    for v in range(len(parent) - 1, 0, -1):
        c = below[v] or 1
        below[v] = c
        below[parent[v]] += c
    return below


def weight_via_leaves(t: MinDecompTree) -> int:
    """
    Sum over stem nodes of the number of leaves below, minus n.  This is
    the sum of the leaf counts of labels 2..n+1 minus n, since the leaves'
    own counts of 1 add up to the root's.

    >>> weight_via_leaves(build_min_decomp((1, 3, 2)))
    1
    """
    return sum(_leaf_counts(t.parent)[2:]) - (len(t.parent) - 2)
