import argparse
import json
import os
import random
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from maxmintrees.cli import build_parser, main
from maxmintrees.partitions import t_triangle

EXAMPLE_15_TEXT = "1 12 15 9 10 5 7 11 6 4 13 3 8 2 14"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWeight:
    def test_fast(self, capsys):
        code, out, _ = run(capsys, "weight", "1 3 2", "--algo", "fast")
        assert code == 0 and out.strip() == "1"

    def test_recursive_identity(self, capsys):
        code, out, _ = run(capsys, "weight", "1 2 3", "--algo", "recursive")
        assert code == 0 and out.strip() == "0"

    def test_range_with_explain(self, capsys):
        code, out, _ = run(capsys, "weight", "2 1 3", "--algo", "range", "--explain")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0"
        assert len(lines) == 3  # two non-descents

    def test_algos_agree(self, capsys):
        results = []
        for algo in ("recursive", "range", "fast"):
            code, out, _ = run(capsys, "weight", EXAMPLE_15_TEXT, "--algo", algo)
            assert code == 0
            results.append(out.strip())
        assert len(set(results)) == 1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "weight", "1 1 2")
        assert code == 2
        assert "duplicate label 1 at position 2" in err

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "weight", "1 3 2", "--output", "json")
        assert code == 0
        env = json.loads(out)
        assert env["result"]["weight"] == 1
        assert env["command"] == "weight"
        assert "elapsed_s" in env and "version" in env

    def test_long_word_needs_only_the_standard_library(self):
        # a fresh interpreter, so that modules other tests import do not count;
        # multiprocessing aliases the main module as __mp_main__.  No pool
        # starts here, so neither concurrent.futures nor multiprocessing loads.
        script = (
            "import random, sys\n"
            "before = set(sys.modules)\n"
            "from maxmintrees import cli\n"
            "word = list(range(1, 3001))\n"
            "random.Random(0).shuffle(word)\n"
            "perm = ' '.join(map(str, word))\n"
            "assert cli.main(['weight', perm]) == 0\n"
            "assert cli.main(['weight', perm, '--explain']) == 0\n"
            "assert cli.main(['tnk', '8', '5']) == 0\n"
            "new = set(sys.modules) - before\n"
            "loaded = {m.partition('.')[0] for m in new if not m.startswith('__')}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'maxmintrees'}))\n"
            "print(sorted(loaded & {'concurrent', 'multiprocessing'}))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


class TestTree:
    def test_maxweight_json_singleton(self, capsys):
        code, out, _ = run(capsys, "tree", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"nodes": [1, 2], "edges": [[1, 2]]}

    def test_maxweight_json_213(self, capsys):
        code, out, _ = run(capsys, "tree", "2 1 3", "--format", "json")
        assert json.loads(out)["edges"] == [[1, 2], [1, 4], [3, 4]]

    def test_mindecomp_dot_contains_12_15(self, capsys):
        code, out, _ = run(
            capsys, "tree", EXAMPLE_15_TEXT, "--kind", "mindecomp", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "12 -> 15;" in out

    def test_maxweight_dot_undirected(self, capsys):
        code, out, _ = run(capsys, "tree", "2 1 3", "--format", "dot")
        assert out.startswith("graph")
        assert "1 -- 2;" in out

    def test_mindecomp_json_annotations(self, capsys):
        code, out, _ = run(capsys, "tree", "1 3 2", "--kind", "mindecomp")
        payload = json.loads(out)
        assert payload["root"] == 1
        assert payload["leaves"] == [3, 4]


class TestEulerian:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "eulerian", "4")
        assert code == 0 and out.strip() == "1 11 11 1"

    def test_q_text(self, capsys):
        code, out, _ = run(capsys, "eulerian", "4", "--q")
        assert out.strip() == "1 + x(q^2 + 3q + 7) + x^2(q^2 + 4q + 6) + x^3"

    def test_q_csv(self, capsys):
        code, out, _ = run(capsys, "eulerian", "3", "--q", "--output", "csv")
        assert out.splitlines()[0] == "x,q,c"
        assert "1,0,3" in out.splitlines()

    def test_limit_exit_3(self, capsys):
        code, _, err = run(capsys, "eulerian", "12")
        assert code == 3 and "limit" in err

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "eulerian", "5", "--q", "--output", "json")
        _, out2, _ = run(capsys, "eulerian", "5", "--q", "--output", "json")
        assert json.loads(out1)["result"] == json.loads(out2)["result"]


class TestWd:
    def test_w1_six_terms(self, capsys):
        code, out, _ = run(capsys, "wd", "1", "--terms", "6")
        assert code == 0 and out.strip() == "1,3,7,15,31,63"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "wd", "2", "--terms", "3", "--output", "csv")
        assert out.splitlines() == ["k,a", "0,1", "1,4", "2,11"]

    def test_limit_exit_3(self, capsys):
        code, _, err = run(capsys, "wd", "6", "--terms", "7")
        assert code == 3


class TestTnk:
    def test_cell(self, capsys):
        code, out, _ = run(capsys, "tnk", "8", "5")
        assert code == 0 and out.strip() == "92"

    def test_contributions(self, capsys):
        code, out, _ = run(capsys, "tnk", "8", "5", "--contributions")
        lines = out.strip().splitlines()
        assert lines[0] == "92"
        assert "11111111 : 56" in lines

    def test_triangle_csv(self, capsys):
        code, out, _ = run(capsys, "tnk", "--triangle", "4", "--output", "csv")
        assert out.splitlines()[-1] == "5,12,11,5,1"

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "tnk")
        assert code == 2

    def test_crosscheck_ok(self, capsys, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text(t_triangle(6).csv_text())
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 0 and out.strip().endswith("OK")

    def test_crosscheck_fault_exit_1(self, capsys, tmp_path):
        rows = [list(r) for r in t_triangle(4).rows]
        rows[3][1] = 999
        f = tmp_path / "t.csv"
        f.write_text("\n".join(",".join(map(str, r)) for r in rows))
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 1
        assert "MISMATCH at (n=3, k=1)" in out

    def test_crosscheck_malformed_exit_2(self, capsys, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1\n1,2,3\n")
        code, _, err = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_crosscheck_unreadable_exit_2(self, capsys, tmp_path, name):
        path = tmp_path / name
        code, out, err = run(capsys, "tnk", "--crosscheck", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_bijection_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--n", "5", "--d", "2")
        assert code == 0
        assert "brute=11 stems=11 T(4,2)=11 -> PASS" in out

    def test_bijection_failure_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--n", "4", "--d", "1")
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("what", ["bijection", "stems"])
    def test_d_outside_domain_exit_2(self, capsys, what):
        code, out, err = run(capsys, "verify", what, "--n", "3", "--d", "0")
        assert code == 2 and out == ""
        assert err == "error: d=0 outside 1..2\n"

    def test_bijection_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bijection", "--n-max", "6", "--region", "stable"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"

    def test_bijection_sweep_needs_bound(self, capsys):
        code, _, err = run(capsys, "verify", "bijection")
        assert code == 2

    def test_bijection_sweep_below_two_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "bijection", "--n-max", "1")
        assert code == 2 and out == ""
        assert err == "error: --n-max must be at least 2, got 1\n"

    def test_stems(self, capsys):
        code, out, _ = run(capsys, "verify", "stems", "--n", "9", "--d", "5")
        assert code == 0
        assert "1 2 3 4: 56" in out
        assert "total 92, T(8,5) = 92" in out

    def test_stabilization(self, capsys):
        code, out, _ = run(
            capsys, "verify", "stabilization", "--d", "1", "--k", "1", "--n-max", "6"
        )
        assert code == 0
        assert "d=1 k=1" in out and "stable" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bijection", "--n", "5", "--d", "2",
            "--output", "json",
        )
        env = json.loads(out)
        assert env["result"]["ok"] is True
        record = env["result"]["checks"][0]
        assert record["brute_count"] == record["stem_total"] == record["t_value"] == 11


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--fast-n", "400", "--range-n", "300", "--seed", "7"
        )
        assert code == 0
        assert "agreement at n=300: yes" in out

    @pytest.mark.parametrize(
        "flag, value", [("--fast-n", "0"), ("--fast-n", "-3"), ("--range-n", "0")]
    )
    def test_size_below_one_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "bench", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be at least 1, got {value}\n"


class TestThreads:
    def test_threads_flag_does_not_change_payload(self, capsys):
        import maxmintrees.eulerian as eu

        eu.clear_cache()
        _, out1, _ = run(capsys, "eulerian", "7", "--q", "--output", "json")
        eu.clear_cache()
        _, out2, _ = run(
            capsys, "eulerian", "7", "--q", "--output", "json", "--threads", "2"
        )
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        code, out, err = run(capsys, "eulerian", "4", "--threads", threads)
        assert code == 2 and out == ""
        assert err == f"error: --threads must be at least 1, got {threads}\n"


# sizes whose defaults would enumerate S_11 or time 1e5-letter words; the
# fuzz cases always give them, bounded
FUZZ_BOUNDED = {"--max-n": 8, "--fast-n": 7, "--range-n": 7}


def fuzz_value(rng, action, flag, files):
    if action.choices is not None:
        return rng.choice(list(action.choices))
    if action.type is int:
        low = 1 if rng.random() < 0.8 else -2
        return str(rng.randint(low, FUZZ_BOUNDED.get(flag, 7)))
    if flag is not None:  # --crosscheck FILE
        return rng.choice(files)
    if rng.random() < 0.8:  # a permutation
        k = rng.randint(1, 7)
        return " ".join(map(str, rng.sample(range(1, k + 1), k)))
    return rng.choice(["", "1 1", "0 1", "a b", "2,1,3", "1 2 x", "1.5", "-1 2"])


def fuzz_argv(rng, subparsers, files):
    command = rng.choice(sorted(subparsers))
    argv = [command]
    for action in subparsers[command]._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        flag = action.option_strings[-1] if action.option_strings else None
        if flag == "--threads":
            argv += [flag, "1"]
            continue
        given = flag in FUZZ_BOUNDED or rng.random() < (0.9 if flag is None else 0.6)
        if not given:
            continue
        if isinstance(action, argparse._StoreTrueAction):
            argv.append(flag)
        elif flag is None:
            argv.append(fuzz_value(rng, action, flag, files))
        else:
            argv += [flag, fuzz_value(rng, action, flag, files)]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--bogus", "x", "-1"]))
    return argv


def test_fuzzed_argv_keep_the_exit_contract(capsys, tmp_path):
    good = tmp_path / "triangle.csv"
    good.write_text(t_triangle(6).csv_text())
    files = [str(good), str(tmp_path / "missing.csv"), str(tmp_path)]
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    rng = random.Random(7)
    for _ in range(300):
        argv = fuzz_argv(rng, subparsers, files)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = exc.code
        except Exception:
            pytest.fail(f"{argv}: {traceback.format_exc()}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
