"""
A census of every maxmin tree on up to 7 nodes, by brute force.

Every labelled tree on m nodes comes from one Prüfer code; the maxmin ones
are counted against Postnikov's formula and given a minimum decomposition
by the union-find of tests/oracles.py, independent of the block split.
Grouping the trees by that decomposition gives one fiber per permutation
of length m - 1, whose size, local maxima, heaviest member and weights are
read off the permutation's own minimum decomposition.  These are checked results,
not theorems: they hold through 7 nodes.
"""

import itertools
import math
from collections import Counter, defaultdict
from functools import lru_cache

import pytest

from maxmintrees.mindecomp import _leaf_counts, build_min_decomp
from maxmintrees.trees import MaxminTree, build_max_weight_tree
from maxmintrees.weights import weight_accelerated
from oracles import descent_count, is_maxmin, min_decomp_of_tree, tree_descents, weight_recursive

MAX_NODES = 7


def postnikov(m):
    """Maxmin trees on m nodes: (1 / (m 2^(m-1))) sum_k C(m, k) k^(m-1)."""
    total = sum(math.comb(m, k) * k ** (m - 1) for k in range(1, m + 1))
    count, rest = divmod(total, m * 2 ** (m - 1))
    assert rest == 0
    return count


def prufer_tree(code, m):
    """The labelled tree on 1..m with Prüfer code ``code``."""
    degree = [1] * (m + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = next(u for u in range(1, m + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(1, m + 1) if degree[u] == 1]
    if len(last) == 2:
        edges.append(tuple(last))
    return MaxminTree(m, edges)


def q_product(lengths):
    """Coefficients of the product of q-integers [l]_q = 1 + q + ... + q^(l-1)."""
    poly = [1]
    for length in lengths:
        out = [0] * (len(poly) + length - 1)
        for i, c in enumerate(poly):
            for j in range(length):
                out[i + j] += c
        poly = out
    return poly


@lru_cache(maxsize=None)
def fibers(m):
    """Maxmin trees on m nodes grouped by their minimum decomposition."""
    by_parent = defaultdict(list)
    for code in itertools.product(range(1, m + 1), repeat=max(m - 2, 0)):
        t = prufer_tree(code, m)
        if is_maxmin(t):
            by_parent[min_decomp_of_tree(t)].append(t)
    return by_parent


def test_postnikovs_formula():
    assert [postnikov(m) for m in range(1, 9)] == [1, 1, 2, 7, 36, 246, 2104, 21652]


@pytest.mark.parametrize("m", range(1, MAX_NODES + 1))
def test_count_is_postnikovs(m):
    assert sum(map(len, fibers(m).values())) == postnikov(m)


def test_every_labelled_tree_is_built_once():
    for m in range(1, 6):
        codes = list(itertools.product(range(1, m + 1), repeat=max(m - 2, 0)))
        assert len(codes) == len({prufer_tree(code, m) for code in codes}), m


@pytest.mark.parametrize("m", range(1, MAX_NODES + 1))
def test_fibers_of_permutations(m):
    by_parent = fibers(m)
    seen = set()
    for p in itertools.permutations(range(1, m)):
        parent = build_min_decomp(p)
        fiber = by_parent.get(parent, [])
        assert fiber, p
        seen.add(parent)
        assert {tree_descents(t) for t in fiber} == {descent_count(p) + 1}, p
        weighed = [(weight_recursive(t), t) for t in fiber]
        weights = Counter(w for w, _ in weighed)
        heaviest = max(weights)
        assert [t for w, t in weighed if w == heaviest] == [build_max_weight_tree(p)], p
        assert heaviest == weight_accelerated(p), p
        lengths = _leaf_counts(parent)[2:]
        assert len(fiber) == math.prod(lengths), p
        assert [weights[w] for w in range(heaviest + 1)] == q_product(lengths), p
    # every maxmin tree lies in the fiber of some permutation
    assert seen == set(by_parent)
