"""
Minimum decomposition trees.

The minimum decomposition of a permutation is the tree that the block split
itself builds (``trees.min_decomp_parents``): each segment minimum is the
parent of the minimum of every block it splits off.  The result is
naturally rooted at the global minimum 1, and every node's label is
smaller than all labels below it.  The max-weight tree is read off the
same parent array.

Leaves (childless nodes) are exactly the descent values of the permutation
plus the appended n+1; the remaining nodes form the stem.  The weight of
the permutation can be read off as the sum, over stem nodes, of the number
of leaves below each, minus n.
"""

from __future__ import annotations

from typing import Sequence

from .perms import Permutation, extend
from .trees import min_decomp_parents


class MinDecompTree:
    """
    Rooted tree on labels 1..node_count with root 1.

    Canonical form is the parent array indexed by label (parent[1] == 0);
    children lists are kept sorted ascending.  Every non-root label's
    parent is strictly smaller, which forces connectivity to the root.
    """

    __slots__ = ("parent", "children")

    def __init__(self, parent: Sequence[int]):
        parent = tuple(parent)
        n1 = len(parent) - 1
        if n1 < 1 or parent[1] != 0:
            raise ValueError("root must be label 1 with parent 0")
        kids: list[list[int]] = [[] for _ in range(n1 + 1)]
        for v in range(2, n1 + 1):
            pv = parent[v]
            if not 1 <= pv < v:
                raise ValueError(f"parent of {v} must lie in 1..{v - 1}, got {pv}")
            kids[pv].append(v)
        self.parent = parent
        self.children = tuple(tuple(k) for k in kids)

    @property
    def node_count(self) -> int:
        return len(self.parent) - 1

    @property
    def root(self) -> int:
        return 1

    def leaves(self) -> frozenset[int]:
        return frozenset(
            v for v in range(1, self.node_count + 1) if not self.children[v]
        )

    def descendants(self, v: int) -> frozenset[int]:
        """All labels strictly below v."""
        out: set[int] = set()
        stack = list(self.children[v])
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(self.children[u])
        return frozenset(out)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed parent -> child pairs, ordered by child label."""
        return tuple((self.parent[v], v) for v in range(2, self.node_count + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinDecompTree):
            return NotImplemented
        return self.parent == other.parent

    def __hash__(self) -> int:
        return hash(self.parent)

    def __repr__(self) -> str:
        return f"MinDecompTree(parent={list(self.parent)})"

    def json_dict(self) -> dict:
        return {
            "nodes": list(range(1, self.node_count + 1)),
            "edges": [list(e) for e in self.edges],
            "root": self.root,
            "leaves": sorted(self.leaves()),
        }


def build_min_decomp(p: Permutation) -> MinDecompTree:
    """
    The minimum decomposition tree of p, rooted at 1.

    >>> build_min_decomp((1, 3, 2)).edges
    ((1, 2), (2, 3), (2, 4))
    """
    return MinDecompTree(min_decomp_parents(extend(p)))


def classify(t: MinDecompTree) -> tuple[frozenset[int], frozenset[int]]:
    """(stem, leaves) of t: leaves are childless nodes, the stem is the rest."""
    leaves = t.leaves()
    stem = frozenset(range(1, t.node_count + 1)) - leaves
    return stem, leaves


def weight_via_leaves(t: MinDecompTree) -> int:
    """
    Sum over stem nodes of the number of leaf descendants, minus n.

    >>> weight_via_leaves(build_min_decomp((1, 3, 2)))
    1
    """
    n = t.node_count - 1
    total = 0
    # count leaf descendants bottom-up; children labels always exceed the
    # parent's, so descending label order is a valid traversal order
    leaf_below = [0] * (t.node_count + 1)
    for v in range(t.node_count, 0, -1):
        kids = t.children[v]
        if not kids:
            leaf_below[v] = 1
        else:
            c = sum(leaf_below[u] for u in kids)
            leaf_below[v] = c
            total += c
    return total - n


def move_up(t: MinDecompTree, leaf: int) -> MinDecompTree:
    """
    Reattach ``leaf`` to its grandparent, returning a new tree.

    When the old parent keeps other children (so the stem is unchanged),
    the weight drops by exactly 1.  The reattachment is performed even when
    it leaves structures no permutation produces; callers that need a valid
    minimum decomposition must guarantee that themselves.
    """
    if not 1 <= leaf <= t.node_count or t.children[leaf]:
        raise ValueError(f"{leaf} is not a leaf")
    parent = t.parent[leaf]
    if parent == t.root:
        raise ValueError(f"parent of {leaf} is the root; cannot move higher")
    new_parent = list(t.parent)
    new_parent[leaf] = t.parent[parent]
    return MinDecompTree(new_parent)
