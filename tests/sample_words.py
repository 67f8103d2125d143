"""
Permutation words shared by the word-level tests: every permutation of
1..n, a seeded shuffle, and runs of alternating direction.
"""

import itertools
import random


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
