"""
Seeded op lists for the three workloads.

An op is a dict: ``argv`` for ``maxmintrees.cli.main`` (with the word
left out of word ops, see ``op_argv``), the fields its check needs, and
``items``, the problem size it covers.  Sizes are fixed per workload; the
seed picks word contents, K, D, output formats and the order, so a pass
costs about the same on every seed while its inputs differ.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("words", "enumeration", "triangle")

RANDOM_SIZES = (100_000, 1_000_000)
STRUCTURED_SIZE = 2000
SHAPES = ("inc", "dec", "zig")


def structured_word(shape: str, n: int, rng: random.Random) -> tuple[int, ...]:
    """
    A word of runs about sqrt(n) long: ``inc`` and ``dec`` are the identity
    and its reverse with sqrt(n) seeded adjacent swaps, ``zig`` alternates
    increasing and decreasing runs of seeded lengths in 3sqrt(n)/4..5sqrt(n)/4.
    """
    r = math.isqrt(n)
    if shape == "zig":
        out: list[int] = []
        v, up = 1, True
        while v <= n:
            length = min(rng.randint(3 * r // 4, 5 * r // 4), n - v + 1)
            run = list(range(v, v + length))
            out += run if up else run[::-1]
            v += length
            up = not up
        return tuple(out)
    w = list(range(1, n + 1)) if shape == "inc" else list(range(n, 0, -1))
    for _ in range(r):
        i = rng.randrange(n - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _words(rng: random.Random) -> tuple[list[dict], dict]:
    words: dict[str, tuple[int, ...]] = {}
    ops: list[dict] = []

    def word_ops(wid, kinds):
        n = len(words[wid])
        for kind in kinds:
            op = {"word": wid, "items": n}
            if kind in ("fast", "range", "explain"):
                algo = "range" if kind == "range" else "fast"
                op.update(cmd="weight", algo=algo, explain=kind == "explain",
                          argv=["weight", "--algo", algo] + (["--explain"] if kind == "explain" else []))
            else:
                kind, _, fmt = kind.partition(":")
                fmt = fmt or rng.choice(("json", "dot"))
                op.update(cmd="tree", kind=kind, format=fmt,
                          argv=["tree", "--kind", kind, "--format", fmt])
            ops.append(op)

    for n in RANDOM_SIZES:
        w = list(range(1, n + 1))
        rng.shuffle(w)
        words[f"random{n}"] = tuple(w)
    word_ops(f"random{RANDOM_SIZES[1]}", ["fast"])
    word_ops(f"random{RANDOM_SIZES[0]}", ["fast", "range", "explain", "maxweight", "mindecomp"])
    for shape in SHAPES:
        wid = f"{shape}{STRUCTURED_SIZE}"
        words[wid] = structured_word(shape, STRUCTURED_SIZE, rng)
        word_ops(wid, ["fast", "range", "explain", "maxweight:json", "maxweight:dot",
                       "mindecomp:json", "mindecomp:dot"])
    return ops, words


def _fmt(rng: random.Random) -> str:
    return rng.choice(("text", "json", "csv"))


def _factorials(lo: int, hi: int) -> int:
    return sum(math.factorial(n) for n in range(lo, hi + 1))


def _enumeration(rng: random.Random) -> list[dict]:
    # Orders 9 (five ops), 8 (eleven) and up to 7 (nine): the order-8 ops fill
    # the ranks of the median and of the tail, so neither sits on a jump in cost.
    ops = [
        {"cmd": "eulerian", "n": 9, "q": True, "format": _fmt(rng), "role": "q9_workers1"},
        {"cmd": "eulerian", "n": 9, "q": True, "format": _fmt(rng), "threads": 2,
         "role": "q9_workers2"},
        {"cmd": "eulerian", "n": 8, "q": True, "format": _fmt(rng), "threads": 2},
    ]
    for n in (7, 8):
        for fmt in ("text", "json", "csv"):
            ops.append({"cmd": "eulerian", "n": n, "q": True, "format": fmt})
    for n in (6, 7, 8, 9):
        ops.append({"cmd": "eulerian", "n": n, "q": False, "format": _fmt(rng)})
    # K <= 6 keeps every term inside the known heads; D + K = 9 would add a
    # sixth q_eulerian(9) to the pass
    for total in (6, 7, 8, 8, 8, 8):
        d = rng.randint(max(1, total - 6), min(4, total - 1))
        ops.append({"cmd": "wd", "d": d, "terms": total - d, "format": _fmt(rng),
                    "items": _factorials(d + 1, total)})
    for n_max in (7, 8, 9):
        ops.append({"cmd": "bijection", "n_max": n_max, "format": rng.choice(("text", "json")),
                    "items": _factorials(2, n_max)})
    # every k = 0..3 needs d + k + 1 <= n_max
    for n_max, d in zip((8, 8, 9), rng.sample(range(1, 5), 3)):
        ops.append({"cmd": "stabilization", "d": d, "n_max": n_max,
                    "format": rng.choice(("text", "json")), "items": _factorials(d + 1, n_max)})
    for op in ops:
        if op["cmd"] == "eulerian":
            op["items"] = math.factorial(op["n"])
            op["argv"] = ["eulerian", str(op["n"])] + (["--q"] if op["q"] else [])
        elif op["cmd"] == "wd":
            op["argv"] = ["wd", str(op["d"]), "--terms", str(op["terms"])]
        elif op["cmd"] == "bijection":
            op["argv"] = ["verify", "bijection", "--n-max", str(op["n_max"])]
        else:
            op["argv"] = ["verify", "stabilization", "--d", str(op["d"]), "--n-max", str(op["n_max"])]
        op["argv"] += ["--output", op["format"], "--threads", str(op.get("threads", 1))]
    return ops


CSV_ROWS = 28
BFILE_ROWS = 26


def _triangle(rng: random.Random) -> list[dict]:
    ops = []
    for n in (30, 33, 36, 40):
        fmt = _fmt(rng)
        ops.append({"cmd": "triangle", "n": n, "format": fmt, "items": (n + 1) * (n + 2) // 2,
                    "argv": ["tnk", "--triangle", str(n), "--output", fmt]})
    for n in (40, 42, 44, 46, 48, 50):
        k, fmt = rng.randint(0, n), rng.choice(("text", "json"))
        ops.append({"cmd": "tnk", "n": n, "k": k, "contributions": False, "format": fmt,
                    "items": 1, "argv": ["tnk", str(n), str(k), "--output", fmt]})
    # k and the format are fixed by n, not drawn: the listing's length and format
    # set the op's cost, and these ops sit near the median latency
    for n, fmt in ((30, "text"), (33, "json"), (36, "text"), (39, "json")):
        k = n // 3
        ops.append({"cmd": "tnk", "n": n, "k": k, "contributions": True, "format": fmt,
                    "items": 1, "argv": ["tnk", str(n), str(k), "--contributions", "--output", fmt]})
    for n in range(20, 31):
        d, fmt = rng.randint((n + 1) // 2, n - 1), rng.choice(("text", "json"))
        ops.append({"cmd": "stems", "n": n, "d": d, "format": fmt, "items": 1,
                    "argv": ["verify", "stems", "--n", str(n), "--d", str(d), "--output", fmt]})
    for file_format, rows in (("csv", CSV_ROWS), ("bfile", BFILE_ROWS)):
        fmt = rng.choice(("text", "json"))
        cells = rows * (rows + 1) // 2
        ops.append({"cmd": "crosscheck", "file": file_format, "rows": rows, "cells": cells,
                    "format": fmt, "items": cells,
                    "argv": ["tnk", "--file-format", file_format, "--output", fmt, "--crosscheck"]})
    return ops


def build(workload: str, seed: int) -> tuple[list[dict], dict]:
    """(ops in run order, words by id) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    words: dict = {}
    if workload == "words":
        ops, words = _words(rng)
    elif workload == "enumeration":
        ops = _enumeration(rng)
    elif workload == "triangle":
        ops = _triangle(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops, words


def op_argv(op: dict, texts: dict, files: dict) -> list[str]:
    """The full argv of an op: word ops get their word text, crosschecks their file."""
    if "word" in op:
        return [op["argv"][0], texts[op["word"]], *op["argv"][1:]]
    if op["cmd"] == "crosscheck":
        return [*op["argv"], files[op["file"]]]
    return op["argv"]


def triangle_files(rows: list[list[int]]) -> dict[str, str]:
    """File texts for the crosscheck ops: a CSV and an OEIS-style b-file."""
    csv = "".join(",".join(map(str, r)) + "\n" for r in rows[:CSV_ROWS])
    cells = [c for r in rows[:BFILE_ROWS] for c in r]
    bfile = "# T(n, k), rows 0.." + str(BFILE_ROWS - 1) + "\n" + "".join(
        f"{i} {c}\n" for i, c in enumerate(cells)
    )
    return {"csv": csv, "bfile": bfile}
