import itertools
import random

import pytest

from maxmintrees.mindecomp import build_min_decomp
from maxmintrees.perms import descent_count, extend
from maxmintrees.trees import (
    MaxminTree,
    build_max_weight_tree,
    decompose_blocks,
    is_maxmin,
    subtree,
    tree_descents,
    weight_recursive,
    weight_via_descent_sums,
)
from maxmintrees.weights import weight_accelerated
from sample_words import all_perms, shuffled, zigzag

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


# ---------------------------------------------------------------- oracles

def oracle_all_construction_trees(p):
    """
    Every tree the block construction can produce when the segment minimum
    may connect to ANY choice of local maximum inside each block (instead
    of always the block maximum).  Used to confirm the default choice is
    the heaviest.
    """
    n = len(p)
    ext = extend(p)

    def local_maxima_of(edge_set, members):
        nbrs = {v: set() for v in members}
        for a, b in edge_set:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return [v for v in members if all(u < v for u in nbrs[v])]

    def rec(lo, hi):
        """Yield (edge-frozenset, member-frozenset) alternatives for a segment."""
        if lo == hi:
            yield frozenset(), frozenset({ext[lo]})
            return
        mpos, blocks = decompose_blocks(ext, (lo, hi))
        m = ext[mpos]
        alternatives = [rec(a, b) for a, b in blocks]
        for combo in itertools.product(*[list(a) for a in alternatives]):
            base = frozenset().union(*[e for e, _ in combo])
            members_per_block = [mem for _, mem in combo]
            # choose one attachment point per block among its local maxima
            choices = [
                local_maxima_of(edges, mem)
                for (edges, mem) in combo
            ]
            for picks in itertools.product(*choices):
                edges = set(base)
                for u in picks:
                    edges.add((m, u) if m < u else (u, m))
                yield frozenset(edges), frozenset().union(*members_per_block) | {m}

    for edges, members in rec(1, n + 1):
        yield MaxminTree(n + 1, edges)


def reference_blocks(seg):
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


def reference_trees(p):
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


def walk_words():
    for n in range(1, 9):
        yield from all_perms(n)
    rng = random.Random(11)
    for _ in range(300):
        word = list(range(1, rng.randint(1, 400) + 1))
        rng.shuffle(word)
        yield tuple(word)
    yield tuple(range(1, 2001))
    yield tuple(range(2000, 0, -1))
    yield zigzag(2000)


# ---------------------------------------------------------- decomposition

class TestDecompose:
    def test_full_segment_of_15_example(self):
        ext = extend(EXAMPLE_15)
        assert decompose_blocks(ext, (1, 16)) == (1, [(2, 16)])

    def test_right_part_of_15_example(self):
        ext = extend(EXAMPLE_15)
        mpos, blocks = decompose_blocks(ext, (2, 16))
        assert ext[mpos] == 2
        assert [ext[b] for _, b in blocks] == [15, 13, 8, 16]
        assert blocks == [(2, 3), (4, 11), (12, 13), (15, 16)]

    def test_left_part_splits_to_singletons(self):
        # segment "3 2 1 4" of the reversal: left of the minimum, "3 2"
        # cuts into two singleton blocks (3 is the global max, then 2)
        ext = extend((3, 2, 1))
        mpos, blocks = decompose_blocks(ext, (1, 4))
        assert ext[mpos] == 1
        assert blocks == [(1, 1), (2, 2), (4, 4)]

    def test_min_last_means_no_right_block(self):
        ext = extend((3, 2, 1))
        # values "3 2": the minimum ends the segment, so no block follows it
        assert decompose_blocks(ext, (1, 2)) == (2, [(1, 1)])

    def test_block_max_at_right_everywhere(self):
        # the invariant the construction relies on, checked explicitly
        for n in range(1, 7):
            for p in all_perms(n):
                ext = extend(p)
                stack = [(1, n + 1)]
                while stack:
                    lo, hi = stack.pop()
                    if lo == hi:
                        continue
                    _, blocks = decompose_blocks(ext, (lo, hi))
                    for a, b in blocks:
                        assert ext[b] == max(ext[a : b + 1])
                        stack.append((a, b))

    def test_every_segment_matches_repeated_max(self):
        for n in range(1, 8):
            for p in all_perms(n):
                ext = extend(p)
                for lo in range(1, n + 2):
                    for hi in range(lo, n + 2):
                        mpos, blocks = decompose_blocks(ext, (lo, hi))
                        seg = ext[lo : hi + 1]
                        cut = [ext[a : b + 1] for a, b in blocks]
                        assert ext[mpos] == min(seg)
                        assert cut == reference_blocks(seg), (p, lo, hi)

    def test_segment_bounds_checked(self):
        with pytest.raises(ValueError, match="outside"):
            decompose_blocks(extend((2, 1, 3)), (0, 3))


# ----------------------------------------------------------- construction

class TestBuild:
    def test_singleton(self):
        assert build_max_weight_tree((1,)).edges == ((1, 2),)

    def test_213(self):
        t = build_max_weight_tree((2, 1, 3))
        assert t.edges == ((1, 2), (1, 4), (3, 4))
        assert repr(t) == "MaxminTree(4, [(1, 2), (1, 4), (3, 4)])"
        # a tree never equals a non-tree: __eq__ defers, and == falls back to identity
        assert not t == "x" and t != "x"

    def test_132(self):
        assert build_max_weight_tree((1, 3, 2)).edges == ((1, 4), (2, 3), (2, 4))

    def test_identity_is_star_at_top(self):
        t = build_max_weight_tree((1, 2, 3, 4))
        assert t.edges == ((1, 5), (2, 5), (3, 5), (4, 5))

    def test_always_maxmin_with_one_extra_descent(self):
        for n in range(1, 8):
            for p in all_perms(n):
                t = build_max_weight_tree(p)
                assert is_maxmin(t)
                assert tree_descents(t) == descent_count(p) + 1

    def test_heaviest_among_construction_choices(self):
        # connecting each block at its maximum attains the maximum weight
        for n in range(1, 6):
            for p in all_perms(n):
                built = build_max_weight_tree(p)
                w = weight_recursive(built)
                alternatives = [
                    weight_recursive(t)
                    for t in oracle_all_construction_trees(p)
                    if is_maxmin(t)
                ]
                assert w == max(alternatives), p

    def test_both_trees_match_the_slice_recursion(self):
        for p in walk_words():
            edges, parent = reference_trees(p)
            assert build_max_weight_tree(p).edges == edges, p[:20]
            assert build_min_decomp(p) == parent, p[:20]

    def test_neighbors_ascend(self):
        # is_maxmin reads the first and last neighbor as the extremes
        words = [p for n in range(1, 8) for p in all_perms(n)] + [shuffled(500, 5)]
        for p in words:
            t = build_max_weight_tree(p)
            assert all(list(ns) == sorted(ns) for ns in t.neighbors), p[:20]
            assert MaxminTree(t.node_count, reversed(t.edges)).neighbors == t.neighbors

    def test_rejects_non_tree(self):
        for node_count in (0, -1):
            with pytest.raises(ValueError, match="at least one node"):
                MaxminTree(node_count, [])
        with pytest.raises(ValueError, match="edges"):
            MaxminTree(3, [(1, 2)])
        with pytest.raises(ValueError, match="connected"):
            MaxminTree(4, [(1, 2), (1, 2), (3, 4)])
        with pytest.raises(ValueError, match="connected"):
            MaxminTree(3, [(2, 2), (1, 3)])
        # a label outside 1..node_count is named before any cycle is seen
        with pytest.raises(ValueError, match=r"edge \(3, 9\) leaves the label range"):
            MaxminTree(4, [(1, 2), (1, 2), (9, 3)])
        with pytest.raises(ValueError, match=r"edge \(0, 2\) leaves the label range"):
            MaxminTree(3, [(2, 0), (0, 2)])

    def test_accepts_exactly_the_connected_edge_sets(self):
        # every multiset of n-1 edges on up to 5 nodes, against a graph search
        for n in range(1, 6):
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
            for edges in itertools.combinations_with_replacement(pairs, n - 1):
                reached, stack = {1}, [1]
                while stack:
                    v = stack.pop()
                    for a, b in edges:
                        for u in ((b,) if a == v else ()) + ((a,) if b == v else ()):
                            if u not in reached:
                                reached.add(u)
                                stack.append(u)
                if len(reached) == n:
                    assert MaxminTree(n, edges).edges == tuple(sorted(edges))
                else:
                    with pytest.raises(ValueError, match="connected"):
                        MaxminTree(n, edges)

    def test_neighbors_are_built_on_first_read(self):
        t = build_max_weight_tree((2, 1, 3))
        assert t._neighbors is None
        assert t.neighbors == ((), (2, 4), (1,), (4,), (1, 3))
        assert t.neighbors is t.neighbors


# -------------------------------------------------------------- predicates

class TestMaxmin:
    def test_single_edge(self):
        assert is_maxmin(MaxminTree(2, [(1, 2)]))

    def test_peak_path(self):
        assert is_maxmin(MaxminTree(3, [(1, 3), (2, 3)]))

    def test_monotone_path_is_not(self):
        assert not is_maxmin(MaxminTree(3, [(1, 2), (2, 3)]))


class TestTreeDescents:
    def test_single_edge(self):
        assert tree_descents(MaxminTree(2, [(1, 2)])) == 1

    def test_213(self):
        assert tree_descents(build_max_weight_tree((2, 1, 3))) == 2

    def test_15_example(self):
        # six word descents plus the appended node
        t = build_max_weight_tree(EXAMPLE_15)
        assert descent_count(EXAMPLE_15) == 6
        assert tree_descents(t) == 7


class TestSubtree:
    def test_one_is_everything(self):
        t = build_max_weight_tree((2, 1, 3))
        assert subtree(t, 1) == frozenset({1, 2, 3, 4})

    def test_three_in_213(self):
        t = build_max_weight_tree((2, 1, 3))
        assert subtree(t, 3) == frozenset({3, 4})

    def test_top_label_is_singleton(self):
        for p in [(1,), (2, 1, 3), EXAMPLE_15]:
            t = build_max_weight_tree(p)
            assert subtree(t, len(p) + 1) == frozenset({len(p) + 1})
        t = build_max_weight_tree((2, 1, 3))
        for label in (0, 5):
            with pytest.raises(ValueError, match=f"^label {label} outside 1..4$"):
                subtree(t, label)


# ----------------------------------------------------------------- weights

class TestWeights:
    def test_single_node_weight(self):
        # the defining recursion bottoms out at zero for a lone node; the
        # smallest tree we can build exercises it once
        assert weight_recursive(build_max_weight_tree((1,))) == 0

    def test_132_weighs_one(self):
        assert weight_recursive(build_max_weight_tree((1, 3, 2))) == 1

    def test_213_weighs_zero(self):
        assert weight_recursive(build_max_weight_tree((2, 1, 3))) == 0

    def test_descent_sums_identity(self):
        for n in range(1, 7):
            t = build_max_weight_tree(tuple(range(1, n + 1)))
            assert weight_via_descent_sums(t) == 0

    def test_descent_sums_132(self):
        t = build_max_weight_tree((1, 3, 2))
        assert weight_via_descent_sums(t) == 1

    def test_descent_sums_213(self):
        t = build_max_weight_tree((2, 1, 3))
        assert weight_via_descent_sums(t) == 0

    def test_routes_agree_exhaustively(self):
        for n in range(1, 8):
            for p in all_perms(n):
                t = build_max_weight_tree(p)
                assert weight_recursive(t) == weight_via_descent_sums(t), p

    def test_recursion_fits_long_words(self):
        # components nest 1000 deep here: too deep for one call per component
        for p in [tuple(range(1, 1001)), zigzag(1000), shuffled(1000, 3)]:
            assert weight_recursive(build_max_weight_tree(p)) == weight_accelerated(p)

    def test_weight_bound(self):
        for n in range(1, 8):
            for p in all_perms(n):
                d = descent_count(p)
                assert weight_recursive(build_max_weight_tree(p)) <= d * (n - d - 1)


# -------------------------------------------------------------- interfaces

class TestSerialization:
    def test_edges_sorted(self):
        t = build_max_weight_tree(EXAMPLE_15)
        assert list(t.edges) == sorted(t.edges)
        assert all(a < b for a, b in t.edges)
