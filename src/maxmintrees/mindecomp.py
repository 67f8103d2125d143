"""
Minimum decomposition trees.

The minimum decomposition of a permutation is the tree that the block split
itself builds (``trees.min_decomp_parents``): each segment minimum is the
parent of the minimum of every block it splits off.  The tree is rooted at
the global minimum 1, and every label is smaller than all labels below it,
so its parent tuple, indexed by label with parent[1] == 0 and
1 <= parent[v] < v otherwise, is the whole tree; ``build_min_decomp``
returns it.  One descending pass over the labels visits every node after
all nodes below it, and reads off the leaf counts behind the weight here
and the largest labels behind the max-weight tree in ``trees``.

Leaves (labels that are no node's parent) are exactly the descent values
of the permutation plus the appended n+1; the remaining nodes form the
stem.  The weight of the permutation is the sum, over stem nodes, of the
number of leaves below each, minus n.
"""

from __future__ import annotations

from typing import Sequence

from .perms import Permutation, extend
from .trees import min_decomp_parents


def build_min_decomp(p: Permutation) -> tuple[int, ...]:
    """
    The parent tuple of the minimum decomposition tree of p, rooted at 1.

    >>> build_min_decomp((1, 3, 2))
    (0, 0, 1, 2, 2)
    """
    return tuple(min_decomp_parents(extend(p)))


def leaves(parent: Sequence[int]) -> frozenset[int]:
    """The labels that are no node's parent."""
    return frozenset(range(1, len(parent))).difference(parent)


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


def weight_via_leaves(parent: Sequence[int]) -> int:
    """
    Sum over stem nodes of the number of leaves below, minus n.  This is
    the sum of the leaf counts of labels 2..n+1 minus n, since the leaves'
    own counts of 1 add up to the root's.

    >>> weight_via_leaves(build_min_decomp((1, 3, 2)))
    1
    """
    return sum(_leaf_counts(parent)[2:]) - (len(parent) - 2)
