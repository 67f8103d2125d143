"""
Permutation words shared by the word-level tests: the paper's example,
every permutation of 1..n, a seeded shuffle, runs of alternating
direction, and the run shapes of the benchmark's structured words.
"""

import itertools
import math
import random

EXAMPLE_15 = (1, 12, 15, 9, 10, 5, 7, 11, 6, 4, 13, 3, 8, 2, 14)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def shuffled(n, seed):
    rng = random.Random(seed)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def zigzag(n, run=45):
    """1..n in runs of ``run`` letters, every second run reversed."""
    word = []
    for run_no, start in enumerate(range(1, n + 1, run)):
        part = list(range(start, min(n + 1, start + run)))
        word += part[::-1] if run_no % 2 else part
    return tuple(word)


def structured(shape, n, seed):
    """A word of runs about sqrt(n) long, the shapes the benchmark's
    ``words`` workload times: ``inc`` and ``dec`` are the identity and its
    reverse with sqrt(n) seeded adjacent swaps, and ``zig`` alternates
    increasing and decreasing runs of seeded lengths in 3sqrt(n)/4..5sqrt(n)/4."""
    rng = random.Random(seed)
    r = math.isqrt(n)
    if shape == "zig":
        word, v, up = [], 1, True
        while v <= n:
            length = min(rng.randint(3 * r // 4, 5 * r // 4), n - v + 1)
            part = list(range(v, v + length))
            word += part if up else part[::-1]
            v += length
            up = not up
        return tuple(word)
    word = list(range(1, n + 1)) if shape == "inc" else list(range(n, 0, -1))
    for _ in range(r):
        i = rng.randrange(n - 1)
        word[i], word[i + 1] = word[i + 1], word[i]
    return tuple(word)
