"""
Tests of the benchmark itself: its references, its checks (a corrupted
output must count as a failed op), its seeded op lists and its tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import pytest

import checks
import run
import tracer
import worker
import workloads
from maxmintrees import cli, eulerian
from maxmintrees.partitions import t_triangle
from maxmintrees.trees import build_max_weight_tree, weight_via_descent_sums
from maxmintrees.weights import weight_via_ranges

HERE = Path(__file__).resolve().parent


def test_own_weights_match_the_library():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert checks.own_weight(p) == weight_via_ranges(p), p
            t = build_max_weight_tree(p)
            assert checks.descent_sum_weight(t.edges, n + 1) == weight_via_descent_sums(t), p
    rng = random.Random(7)
    for _ in range(50):
        p = tuple(rng.sample(range(1, 301), 300))
        assert checks.own_weight(p) == weight_via_ranges(p)


def test_references():
    assert checks.eulerian_numbers(5) == [1, 26, 66, 26, 1]
    assert [list(r) for r in checks.t_rows(20)] == [list(r) for r in t_triangle(20).rows]
    assert sum(checks.length_multiset(8, 5).values()) == 7  # partitions of 8 with >= 5 parts


def _corrupt(out: str, old: str, new: str) -> str:
    assert old in out, (old, out[:200])
    return out.replace(old, new, 1)


WORD = (3, 1, 4, 2, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 15)

# (op, corruption applied to the correct output)
CASES = [
    ({"cmd": "weight", "word": "w", "algo": "fast", "explain": False,
      "argv": ["weight", "--algo", "fast"]}, lambda o: str(int(o) + 1) + "\n"),
    ({"cmd": "weight", "word": "w", "algo": "range", "explain": True,
      "argv": ["weight", "--algo", "range", "--explain"]}, lambda o: _corrupt(o, " descents", "1 descents")),
    ({"cmd": "tree", "word": "w", "kind": "maxweight", "format": "json",
      "argv": ["tree", "--kind", "maxweight", "--format", "json"]}, lambda o: _corrupt(o, "[1, ", "[2, ")),
    ({"cmd": "tree", "word": "w", "kind": "maxweight", "format": "dot",
      "argv": ["tree", "--kind", "maxweight", "--format", "dot"]}, lambda o: _corrupt(o, " -- ", "0 -- ")),
    ({"cmd": "tree", "word": "w", "kind": "mindecomp", "format": "json",
      "argv": ["tree", "--kind", "mindecomp", "--format", "json"]}, lambda o: _corrupt(o, '"root": 1', '"root": 2')),
    ({"cmd": "tree", "word": "w", "kind": "mindecomp", "format": "dot",
      "argv": ["tree", "--kind", "mindecomp", "--format", "dot"]}, lambda o: _corrupt(o, "1 -> 2;", "1 -> 3;")),
    ({"cmd": "eulerian", "n": 5, "q": True, "format": "text",
      "argv": ["eulerian", "5", "--q"]}, lambda o: _corrupt(o, "25q", "24q")),
    ({"cmd": "eulerian", "n": 5, "q": True, "format": "json",
      "argv": ["eulerian", "5", "--q", "--output", "json"]}, lambda o: _corrupt(o, '"c": 25', '"c": 26')),
    ({"cmd": "eulerian", "n": 6, "q": True, "format": "csv",
      "argv": ["eulerian", "6", "--q", "--output", "csv"]}, lambda o: _corrupt(o, "1,4,1\n", "1,4,2\n")),
    ({"cmd": "eulerian", "n": 6, "q": False, "format": "text",
      "argv": ["eulerian", "6"]}, lambda o: _corrupt(o, "302", "303")),
    ({"cmd": "wd", "d": 2, "terms": 4, "format": "csv",
      "argv": ["wd", "2", "--terms", "4", "--output", "csv"]}, lambda o: _corrupt(o, "3,31", "3,30")),
    ({"cmd": "bijection", "n_max": 6, "format": "text",
      "argv": ["verify", "bijection", "--n-max", "6"]}, lambda o: _corrupt(o, "n=6 d=3", "n=6 d=4")),
    ({"cmd": "bijection", "n_max": 6, "format": "json",
      "argv": ["verify", "bijection", "--n-max", "6", "--output", "json"]},
     lambda o: _corrupt(o, '"brute_count": 1,', '"brute_count": 2,')),
    ({"cmd": "stabilization", "d": 2, "n_max": 7, "format": "text",
      "argv": ["verify", "stabilization", "--d", "2", "--n-max", "7"]}, lambda o: _corrupt(o, ":11", ":12")),
    ({"cmd": "triangle", "n": 8, "format": "csv",
      "argv": ["tnk", "--triangle", "8", "--output", "csv"]}, lambda o: _corrupt(o, "22,86", "22,87")),
    ({"cmd": "tnk", "n": 12, "k": 3, "contributions": False, "format": "json",
      "argv": ["tnk", "12", "3", "--output", "json"]}, lambda o: _corrupt(o, '"value": ', '"value": 1')),
    ({"cmd": "tnk", "n": 8, "k": 5, "contributions": True, "format": "text",
      "argv": ["tnk", "8", "5", "--contributions"]}, lambda o: _corrupt(o, ": 21", ": 20")),
    ({"cmd": "tnk", "n": 12, "k": 4, "contributions": True, "format": "json",
      "argv": ["tnk", "12", "4", "--contributions", "--output", "json"]},
     lambda o: _corrupt(o, '"partition": [', '"partition": [1, ')),
    ({"cmd": "stems", "n": 9, "d": 5, "format": "text",
      "argv": ["verify", "stems", "--n", "9", "--d", "5"]}, lambda o: _corrupt(o, "1 2 3 7: 1", "1 2 3 7: 2")),
    ({"cmd": "stems", "n": 9, "d": 5, "format": "json",
      "argv": ["verify", "stems", "--n", "9", "--d", "5", "--output", "json"]},
     lambda o: _corrupt(o, '"count": 56', '"count": 55')),
]


def _run(op, files=None):
    op = dict(op, id=0)
    words = {"w": WORD}
    argv = workloads.op_argv(op, {"w": " ".join(map(str, WORD))}, files or {})
    eulerian.clear_cache()
    return op, words, {"w": [checks.own_weight(WORD)]}, worker._call(cli.main, argv)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_corrupted_output_counts_as_failure(case):
    op, corrupt = CASES[case]
    op, words, refs, (rc, out, err) = _run(op)
    assert (rc, err) == (0, "")
    failures, _ = worker.find_failures([op], [(rc, out, err)], [], words, refs)
    assert failures == []
    failures, _ = worker.find_failures([op], [(rc, corrupt(out), err)], [], words, refs)
    assert len(failures) == 1, failures


def test_crosscheck_files_check_and_fail_when_corrupted(tmp_path):
    texts = workloads.triangle_files([list(r) for r in checks.t_rows(50)])
    files = {}
    for name, text in texts.items():
        files[name] = str(tmp_path / name)
        Path(files[name]).write_text(text)
    for file_format, rows in (("csv", workloads.CSV_ROWS), ("bfile", workloads.BFILE_ROWS)):
        op = {"cmd": "crosscheck", "file": file_format, "rows": rows, "format": "text",
              "cells": rows * (rows + 1) // 2,
              "argv": ["tnk", "--file-format", file_format, "--crosscheck"]}
        op, words, refs, result = _run(op, files)
        assert worker.find_failures([op], [result], [], words, refs)[0] == []
        bad = (result[0], result[1].replace("OK", "FAILED"), result[2])
        assert len(worker.find_failures([op], [bad], [], words, refs)[0]) == 1


def test_exit_codes_tracebacks_and_changed_repeats_are_failures():
    op, words, refs, good = _run(CASES[0][0])
    assert len(worker.find_failures([op], [(2, "", "error: bad")], [], words, refs)[0]) == 1
    assert len(worker.find_failures([op], [("traceback", "", "Traceback")], [], words, refs)[0]) == 1
    changed = (good[0], good[1] + " ", good[2])
    assert len(worker.find_failures([op], [good], [[changed]], words, refs)[0]) == 1
    assert worker.find_failures([op], [good], [[good]], words, refs)[0] == []


def test_same_seed_same_ops_other_seed_other_ops():
    for name in ("enumeration", "triangle"):
        a, _ = workloads.build(name, 5)
        b, _ = workloads.build(name, 5)
        c, _ = workloads.build(name, 6)
        assert a == b
        assert a != c
        assert sorted(op["items"] for op in a) == sorted(op["items"] for op in b)


def test_threads_never_exceed_two():
    for seed in range(5):
        ops, _ = workloads.build("enumeration", seed)
        assert max(int(op["argv"][op["argv"].index("--threads") + 1]) for op in ops) == 2


def test_cheap_triangle_ops_pass_their_checks():
    ops, _ = workloads.build("triangle", 3)
    for op in ops:
        if op["cmd"] in ("stems", "tnk") and op["n"] <= 42 and not op.get("contributions"):
            op, words, refs, result = _run(op)
            assert worker.find_failures([op], [result], [], words, refs)[0] == [], op


def test_tracer_patches_every_namespace_and_restores_it():
    from maxmintrees import weights

    original = cli.weight_accelerated
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.weight_accelerated is weights.weight_accelerated is not original
        tr.start_op(0)
        assert worker._call(cli.main, ["weight", "3 1 2"])[0] == 0
        tr.start_op(1)
        eulerian.clear_cache()
        assert worker._call(cli.main, ["eulerian", "7", "--q", "--threads", "2"])[0] == 0
        tr.start_op(2)
        eulerian.clear_cache()
        assert worker._call(cli.main, ["wd", "1", "--terms", "3"])[0] == 0
    finally:
        tr.uninstall()
    assert cli.weight_accelerated is original
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "perms.parse_permutation", "weights.weight_accelerated"} <= names
    # pool workers report their permutations back
    assert tr.perms_enumerated() == 5040 + sum(map(math.factorial, (2, 3, 4)))
    parents = {s[3] for s in tr.spans if s[0] == "weights.weight_accelerated"}
    assert all(tr.spans[p][0] == "cli.main" for p in parents)


def test_benchmark_json_matches_the_layer_table():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in layers["metrics"]] == bench["per_layer"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
