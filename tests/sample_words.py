"""
Permutation words shared by the word-level tests: the paper's example,
every permutation of 1..n, a seeded shuffle, and runs of alternating
direction.
"""

import itertools
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
