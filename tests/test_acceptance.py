"""
Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its runtime.  Run `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete.  The polynomial criteria share the cache of
q_eulerian, so the suite computes each order only once.
"""

import math
import random
import time
from contextlib import contextmanager

from expected_values import (
    E3,
    E4,
    E5,
    E6,
    STEMS_9_5,
    T85_CONTRIBUTIONS,
    TRIANGLE_10,
    W_SERIES,
    q_coefficients,
)

from maxmintrees.bijection import (
    bijection_report,
    enumerate_stems,
    stable_region,
    stem_count,
    stem_to_partition,
)
from maxmintrees.eulerian import (
    clear_cache,
    eulerian_polynomial,
    maxwt,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from maxmintrees.mindecomp import build_min_decomp, weight_via_leaves
from maxmintrees.partitions import enumerate_partitions, t_nk, t_nk_contributions, t_triangle
from maxmintrees.trees import build_max_weight_tree, weight_via_descent_sums
from maxmintrees.weights import descents_and_weight, weight_accelerated
from oracles import ORDERS, faults, walk, weight_recursive


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.2f}s)")


def shuffled(n, rng):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def test_01_q_eulerian_exactness():
    with criterion(1, "q-eulerian exactness, orders 3..6"):
        clear_cache()
        t0 = time.perf_counter()
        polys = {n: q_eulerian(n) for n in (3, 4, 5, 6)}
        elapsed = time.perf_counter() - t0
        for n, expected in ((3, E3), (4, E4), (5, E5), (6, E6)):
            assert polys[n] == expected, f"order {n} mismatch"
        assert q_coefficients(polys[6], 2) == {
            6: 1, 5: 4, 4: 11, 3: 31, 2: 58, 1: 107, 0: 90,
        }
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_02_eulerian_consistency():
    with criterion(2, "Eulerian consistency through order 9"):
        t0 = time.perf_counter()
        assert eulerian_polynomial(4) == [1, 11, 11, 1]
        for n in range(1, 10):
            poly = q_eulerian(n)
            at_q_one = [sum(q_coefficients(poly, d).values()) for d in range(n)]
            assert at_q_one == eulerian_polynomial(n), n
            assert sum(poly.values()) == math.factorial(n), n
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_03_wd_series():
    with criterion(3, "stabilized series heads (thresholds through 10)"):
        t0 = time.perf_counter()
        for d, expected in W_SERIES.items():
            assert wd_series(d, len(expected)) == expected, f"series d={d}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_04_stabilization():
    with criterion(4, "coefficient stabilization through order 9"):
        t0 = time.perf_counter()
        for d in (1, 2, 3):
            for k in range(4):
                want = [(n, W_SERIES[d][k]) for n in range(d + k + 1, 10)]
                assert stabilization_values(d, k, 9) == want, (d, k)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_05_partition_triangle():
    with criterion(5, "partition triangle matches the reference rows"):
        t0 = time.perf_counter()
        tri = t_triangle(10)
        assert [list(r) for r in tri.rows] == TRIANGLE_10
        assert sum(len(r) for r in tri.rows) == 66
        assert t_nk(8, 5) == 92
        assert t_nk_contributions(8, 5) == T85_CONTRIBUTIONS
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_06_bijection_region():
    with criterion(6, "near-max-weight counts equal T(n-1, d) on 2d >= n-1"):
        t0 = time.perf_counter()
        pairs = [
            (n, d)
            for n in range(2, 11)
            for d in range(1, n)
            if stable_region(n, d)
        ]
        assert (9, 5) in pairs and (10, 5) in pairs
        for n, d in pairs:
            r = bijection_report(n, d)
            assert r["pass"], r
            assert r["brute_count"] == r["stem_total"] == r["t_value"], r
            if (n, d) == (9, 5):
                assert r["brute_count"] == 92
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_07_stem_machinery():
    with criterion(7, "stem enumeration, counts, and partition images for (9, 5)"):
        t0 = time.perf_counter()
        stems = enumerate_stems(9, 5)
        got = [(s, stem_count(s, 9, 5), stem_to_partition(s, 9)) for s in stems]
        assert got == STEMS_9_5
        images = {lam for _, _, lam in got}
        assert len(images) == len(got)
        assert images == {lam for lam in enumerate_partitions(8) if len(lam) >= 5}
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_08_algorithm_agreement():
    with criterion(8, "five weight routes agree on S_8 and on 1000 long inputs"):
        t0 = time.perf_counter()
        # the walk of S_1..S_8 runs the five routes on every permutation
        assert faults("weight routes") == []
        assert len(walk(8)) == 40320
        rng = random.Random(20240803)
        for _ in range(1000):
            p = shuffled(200, rng)
            t = build_max_weight_tree(p)
            a = weight_recursive(t)
            b = weight_via_descent_sums(t)
            c = weight_accelerated(p)
            d = weight_via_leaves(build_min_decomp(p))
            e = descents_and_weight(p)[1]
            assert a == b == c == d == e
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_09_performance():
    with criterion(9, "linear ranges at 1e5 under 1s on a random and the rising word"):
        rng = random.Random(99)
        shuffled(64, rng)  # a discarded draw: it fixes which word p_large is
        p_large = shuffled(100_000, rng)
        t0 = time.perf_counter()
        w_large = weight_accelerated(p_large)
        dt_fast = time.perf_counter() - t0
        # the rising word is the one on which scanning the ranges is quadratic
        p_rising = tuple(range(1, 100_001))
        t0 = time.perf_counter()
        w_rising = weight_accelerated(p_rising)
        dt_rng = time.perf_counter() - t0
        print(
            f"\n  accelerated n=100000: {dt_fast * 1000:.0f} ms (weight {w_large}); "
            f"ranges on the rising n=100000: {dt_rng * 1000:.0f} ms"
        )
        assert w_rising == 0
        assert dt_fast < 1.0, f"accelerated took {dt_fast:.2f}s, budget 1s"
        assert dt_rng < 1.0, f"ranges took {dt_rng:.2f}s, budget 1s"


def test_10_structural_properties():
    with criterion(10, "decomposition structure on every order through 8"):
        t0 = time.perf_counter()
        # on every permutation of the walk: leaves are the descent values
        # plus the appended node; max-weight subtrees equal decomposition
        # descendants; moving a leaf up one stem level sheds exactly one
        # unit; near-max-weight decompositions have path-shaped stems
        for check in ("leaves", "subtrees", "moved leaf", "path stems"):
            assert faults(check) == [], check
        for n in ORDERS:
            # distinct permutations give distinct decompositions
            assert len({word.parent for word in walk(n)}) == math.factorial(n)
            # the heaviest permutation with d descents weighs d(n-d-1)
            heaviest = {}
            for word in walk(n):
                heaviest[word.descents] = max(heaviest.get(word.descents, 0), word.weight)
            assert heaviest == {d: maxwt(n, d) for d in range(n)}, n
        # the same maximum holds at order 9, read off the cached polynomial
        poly9 = q_eulerian(9)
        for d in range(1, 8):
            assert max(q_coefficients(poly9, d)) == maxwt(9, d), d
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
