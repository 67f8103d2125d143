"""
A children-list reference for minimum decomposition trees.

The package reads every member of a minimum decomposition off its parent
array in one descending pass.  These definitions walk explicit children
lists instead, so the tests can hold the two readings equal, on the
arrays that permutations build and on arrays that no permutation builds.
"""


def children(parent):
    """The children of every label, ascending, indexed by label."""
    kids = [[] for _ in parent]
    for v in range(2, len(parent)):
        kids[parent[v]].append(v)
    return kids


def descendants(kids, v):
    """All labels strictly below v."""
    out = set()
    stack = list(kids[v])
    while stack:
        u = stack.pop()
        out.add(u)
        stack.extend(kids[u])
    return frozenset(out)


def leaves(kids):
    """The childless labels."""
    return frozenset(v for v in range(1, len(kids)) if not kids[v])


def leaf_counts(kids):
    """The leaves among each label and its descendants, indexed by label."""
    ls = leaves(kids)
    return [0] + [len(ls & (descendants(kids, v) | {v})) for v in range(1, len(kids))]


def weight(kids):
    """Sum over stem nodes of the number of leaves below each, minus n."""
    ls = leaves(kids)
    stem_total = sum(len(ls & descendants(kids, v)) for v in range(1, len(kids)) if kids[v])
    return stem_total - (len(kids) - 2)
