import argparse
import errno
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest

import maxmintrees.bijection as bijection
import maxmintrees.cli as cli
import maxmintrees.eulerian as eulerian
import maxmintrees.partitions as partitions
import maxmintrees.weights as weights
from maxmintrees.cli import build_parser, main
from maxmintrees.mindecomp import build_min_decomp
from maxmintrees.partitions import t_triangle
from maxmintrees.weights import descents_and_weight

from cli_corpus import CORPUS, corpus_lines
from expected_values import triangle_csv
from oracles import descent_values

EXAMPLE_15_TEXT = "1 12 15 9 10 5 7 11 6 4 13 3 8 2 14"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_to_exit(capsys, *argv):
    """Like ``run``, but an argv that argparse refuses ends in SystemExit."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


def assert_refused(code, out, err, message):
    """Exit 2, no stdout, and one error report: ours is one line; argparse's
    own (a message naming its parser) comes after that parser's usage lines."""
    assert code == 2 and out == ""
    if message.startswith("error: "):
        assert err == f"{message}\n"
    else:
        prog = message.split(": error: ")[0]
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"\n{message}\n") and err.count("error:") == 1


def result_text(out):
    """The ``result`` of a JSON envelope, serialised again in its own key order."""
    envelope = json.loads(out)
    assert list(envelope) == ["command", "parameters", "result", "elapsed_s", "version"]
    return json.dumps(envelope["result"])


def faulty_triangle(tmp_path):
    """Rows 0..4 of T(n, k) as CSV with T(3, 1) and T(4, 4) off by one."""
    rows = [list(r) for r in t_triangle(4).rows]
    rows[3][1] += 1
    rows[4][4] += 1
    f = tmp_path / "faulty.csv"
    f.write_text(triangle_csv(rows))
    return f


class TestWeight:
    def test_fast(self, capsys):
        code, out, _ = run(capsys, "weight", "1 3 2", "--algo", "fast")
        assert code == 0 and out.strip() == "1"

    def test_mindecomp_identity(self, capsys):
        code, out, _ = run(capsys, "weight", "1 2 3", "--algo", "mindecomp")
        assert code == 0 and out.strip() == "0"

    def test_mindecomp_matches_fast_on_a_long_word(self, capsys):
        word = list(range(1, 10_001))
        random.Random(5).shuffle(word)
        text = " ".join(map(str, word))
        results = [run(capsys, "weight", text, "--algo", algo) for algo in ("mindecomp", "fast")]
        assert results[0] == results[1] and results[0][0] == 0

    def test_recursive_algo_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weight", "1 2 3", "--algo", "recursive"])
        assert exc.value.code == 2
        assert "invalid choice: 'recursive'" in capsys.readouterr().err

    def test_range_with_explain(self, capsys):
        code, out, _ = run(capsys, "weight", "2 1 3", "--algo", "range", "--explain")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0"
        assert len(lines) == 3  # two non-descents

    @pytest.mark.parametrize("algo", ["fast", "range", "mindecomp"])
    def test_explain_runs_the_stack_pass_once(self, capsys, monkeypatch, algo):
        calls = []
        ranges = weights._subtree_ranges

        def counted(ext):
            calls.append(len(ext))
            return ranges(ext)

        monkeypatch.setattr(weights, "_subtree_ranges", counted)
        for output in ("text", "json"):
            code, _, _ = run(
                capsys, "weight", EXAMPLE_15_TEXT, "--algo", algo, "--explain", "--output", output
            )
            assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("algo", ["fast", "range", "mindecomp"])
    def test_explained_weight_equals_the_plain_weight(self, capsys, algo):
        rng = random.Random(23)
        words = [EXAMPLE_15_TEXT]
        for n in [1, 2, 3, *rng.sample(range(4, 301), 20), 300]:
            word = list(range(1, n + 1))
            rng.shuffle(word)
            words.append(" ".join(map(str, word)))
        for text in words:
            plain = run(capsys, "weight", text)[1]
            explained = run(capsys, "weight", text, "--algo", algo, "--explain")[1]
            assert explained.splitlines()[0] == plain.strip(), text
            envelope = json.loads(
                run(capsys, "weight", text, "--algo", algo, "--explain", "--output", "json")[1]
            )
            assert envelope["result"]["weight"] == int(plain), text

    def test_algos_agree(self, capsys):
        results = []
        for algo in ("mindecomp", "range", "fast"):
            code, out, _ = run(capsys, "weight", EXAMPLE_15_TEXT, "--algo", algo)
            assert code == 0
            results.append(out.strip())
        assert len(set(results)) == 1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "weight", "1 1 2")
        assert code == 2
        assert "duplicate label 1 at position 2" in err

    def test_underscore_label_exit_2(self, capsys):
        code, out, err = run(capsys, "weight", "1_0 2 3 4 5 6 7 8 9 1")
        assert code == 2 and out == ""
        assert err == "error: non-integer token '1_0' at position 1\n"

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "weight", "1 3 2", "--output", "json")
        assert code == 0
        env = json.loads(out)
        assert env["result"]["weight"] == 1
        assert env["command"] == "weight"
        assert "elapsed_s" in env and "version" in env

    def test_long_word_needs_only_the_standard_library(self):
        # a fresh interpreter, so that modules other tests import do not count;
        # multiprocessing aliases the main module as __mp_main__.  No command
        # starts a process: order 7 is enumerated in-process, order 9 runs
        # the recurrence, and --threads 2 changes neither, so neither
        # concurrent.futures nor multiprocessing loads.
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
            "assert cli.main(['eulerian', '7', '--q', '--threads', '2']) == 0\n"
            "assert cli.main(['eulerian', '9', '--q']) == 0\n"
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

    def test_start_imports_neither_dataclasses_nor_inspect(self):
        # a fresh interpreter without site, whose start-up hooks may load
        # either module; inspect pulls in ast, dis and tokenize on every start
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import maxmintrees.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # the output (about 270 kB) outgrows the pipe buffer, so the write
        # is still pending when the reader closes its end
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "maxmintrees.cli", "tnk", "39", "13", "--contributions"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().strip().isdigit()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class UnreadableStdin:
    def read(self):
        raise OSError(errno.EIO, "Input/output error")


class TestStdin:
    @pytest.mark.parametrize(
        "argv",
        [("weight",), ("weight", "--algo", "mindecomp", "--explain"), ("weight", "--output", "json"),
         ("tree",), ("tree", "--kind", "mindecomp", "--format", "dot")],
    )
    def test_dash_reads_the_word_from_stdin(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv[:1], EXAMPLE_15_TEXT, *argv[1:])
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"  {EXAMPLE_15_TEXT}\n"))
        code, out, err = run(capsys, *argv[:1], "-", *argv[1:])
        if "json" in argv:  # the envelope echoes PERM and the elapsed time
            assert result_text(out) == result_text(expected[1])
        else:
            assert (code, out, err) == expected
        assert code == 0

    @pytest.mark.parametrize(
        "stdin, message",
        [
            (lambda: None, "cannot read PERM from standard input: it is closed"),
            (UnreadableStdin, "cannot read PERM from standard input: Input/output error"),
            (lambda: io.TextIOWrapper(io.BytesIO(b"2 \xff 1"), encoding="utf-8"),
             "cannot read PERM from standard input: 'utf-8' codec can't decode "
             "byte 0xff in position 2: invalid start byte"),
            (lambda: io.StringIO(" \n"), "empty permutation text"),
            (lambda: io.StringIO("1 1"), "duplicate label 1 at position 2"),
            (lambda: io.StringIO("1 " + "9" * 200_000),
             f"label {'9' * 20}... (200000 digits) out of range [1, 2] at position 2"),
        ],
        ids=["closed", "io-error", "undecodable", "blank", "duplicate", "long-token"],
    )
    @pytest.mark.parametrize("command", ["weight", "tree"])
    def test_bad_stdin_exits_2(self, capsys, monkeypatch, command, stdin, message):
        monkeypatch.setattr(sys, "stdin", stdin())
        assert_refused(*run(capsys, command, "-"), f"error: {message}")

    def test_piped_word_above_the_argument_limit(self):
        # Linux refuses to exec one argument above 128 KiB (E2BIG); a pipe has no limit
        word = list(range(1, 100_001))
        random.Random(9).shuffle(word)
        text = " ".join(map(str, word)) + "\n"
        assert len(text.encode()) > 128 * 1024
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "maxmintrees.cli", "weight", "-"],
            env={**os.environ, "PYTHONPATH": str(src)},
            input=text,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{descents_and_weight(tuple(word))[1]}\n"

    def test_undecodable_stdin_exits_2_without_a_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "maxmintrees.cli", "tree", "-"],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8:strict"},
            input=b"1 \xfe 2",
            capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            b"error: cannot read PERM from standard input: 'utf-8' codec can't decode "
            b"byte 0xfe in position 2: invalid start byte\n"
        )


class TestTree:
    def test_maxweight_json_singleton(self, capsys):
        code, out, _ = run(capsys, "tree", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"nodes": [1, 2], "edges": [[1, 2]]}

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

    @pytest.mark.parametrize(
        "kind, dot",
        [("maxweight", "graph maxweight {\n  1 -- 2;\n  1 -- 4;\n  3 -- 4;\n}\n"),
         ("mindecomp", "digraph mindecomp {\n  1 -> 2;\n  2 -> 3;\n  2 -> 4;\n}\n")],
    )
    def test_dot_text(self, capsys, kind, dot):
        perm = "2 1 3" if kind == "maxweight" else "1 3 2"
        code, out, _ = run(capsys, "tree", perm, "--kind", kind, "--format", "dot")
        assert code == 0 and out == dot

    def test_mindecomp_json_on_every_small_word(self, capsys):
        # the edges are the parent tuple's pairs (parent[v], v) in the order of v,
        # and the leaves are the descent values plus the appended node
        for n in range(1, 6):
            for p in itertools.permutations(range(1, n + 1)):
                parent = build_min_decomp(p)
                code, out, _ = run(capsys, "tree", " ".join(map(str, p)), "--kind", "mindecomp")
                assert code == 0 and json.loads(out) == {
                    "nodes": list(range(1, n + 2)),
                    "edges": [[parent[v], v] for v in range(2, n + 2)],
                    "root": 1,
                    "leaves": sorted(descent_values(p) | {n + 1}),
                }, p

    def test_json_format_builds_no_dot(self, capsys, monkeypatch):
        def refuse(tree):
            raise AssertionError("DOT text built for --format json")

        monkeypatch.setattr(cli, "_dot", refuse)
        for kind in ("maxweight", "mindecomp"):
            _, expected, _ = run(capsys, "tree", "2 1 3", "--kind", kind)
            code, out, _ = run(capsys, "tree", "2 1 3", "--kind", kind, "--format", "json")
            assert code == 0 and out == expected

    @pytest.mark.parametrize(
        "kind, perm, tree",
        [("maxweight", "2 1 3", '{"nodes": [1, 2, 3, 4], "edges": [[1, 2], [1, 4], [3, 4]]}'),
         ("mindecomp", "1 3 2", '{"nodes": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]], '
                                '"root": 1, "leaves": [3, 4]}')],
    )
    def test_json_bytes(self, capsys, kind, perm, tree):
        code, out, _ = run(capsys, "tree", perm, "--kind", kind)
        assert code == 0 and out == tree + "\n"
        code, out, _ = run(capsys, "tree", perm, "--kind", kind, "--output", "json")
        perm_json = "[" + perm.replace(" ", ", ") + "]"
        assert code == 0 and result_text(out) == f'{{"perm": {perm_json}, {tree[1:]}'


class TestEulerian:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "eulerian", "4")
        assert code == 0 and out.strip() == "1 11 11 1"

    @pytest.mark.parametrize(
        "n, text",
        [("3", "1 + x(q + 3) + x^2"),
         ("4", "1 + x(q^2 + 3q + 7) + x^2(q^2 + 4q + 6) + x^3")],
    )
    def test_q_text(self, capsys, n, text):
        code, out, _ = run(capsys, "eulerian", n, "--q")
        assert code == 0 and out == text + "\n"

    def test_q_csv(self, capsys):
        # x ascending, then q descending
        code, out, _ = run(capsys, "eulerian", "4", "--q", "--output", "csv")
        assert code == 0
        assert out == "x,q,c\n0,0,1\n1,2,1\n1,1,3\n1,0,7\n2,2,1\n2,1,4\n2,0,6\n3,0,1\n"

    def test_q_json(self, capsys):
        code, out, _ = run(capsys, "eulerian", "3", "--q", "--output", "json")
        assert code == 0 and result_text(out) == (
            '{"n": 3, "terms": [{"x": 0, "q": 0, "c": 1}, {"x": 1, "q": 1, "c": 1}, '
            '{"x": 1, "q": 0, "c": 3}, {"x": 2, "q": 0, "c": 1}]}'
        )

    def test_limit_exit_3(self, capsys):
        # --q is refused above the q-Eulerian order limit 25; the plain
        # recurrence refuses only an order above 1000, before computing anything
        code, out, err = run(capsys, "eulerian", "26", "--q")
        assert code == 3 and out == ""
        assert err == "error: n=26 exceeds the q-Eulerian order limit 25\n"
        code, out, err = run(capsys, "eulerian", "1001")
        assert code == 3 and out == ""
        assert err == "error: n=1001 exceeds the Eulerian polynomial limit 1000\n"
        code, out, err = run(capsys, "eulerian", "0", "--q")
        assert code == 2 and out == ""
        assert err == "error: n must be positive, got 0\n"

    def test_plain_order_beyond_the_enumeration_limit(self, capsys):
        code, out, _ = run(capsys, "eulerian", "30")
        assert code == 0 and sum(map(int, out.split())) == math.factorial(30)

    def test_largest_plain_order_prints_every_coefficient(self, capsys):
        # at the limit the largest coefficient still fits Python's int -> str
        # digit limit, in text and in JSON
        code, out, _ = run(capsys, "eulerian", "1000")
        coeffs = [int(c) for c in out.split()]
        assert code == 0 and len(coeffs) == 1000 and sum(coeffs) == math.factorial(1000)
        code, out, _ = run(capsys, "eulerian", "1000", "--output", "json")
        assert code == 0 and json.loads(out)["result"]["coefficients"] == coeffs

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
        # 20 terms of W_6 need order 26, one above the q-Eulerian order limit
        code, out, err = run(capsys, "wd", "6", "--terms", "20")
        assert code == 3 and out == ""
        assert err == "error: 20 terms of the d=6 series need n=26, above the limit 25\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "wd", "2", "--terms", "3", "--output", "json")
        assert code == 0
        assert result_text(out) == '{"d": 2, "coefficients": [1, 4, 11]}'


class TestTnk:
    def test_cell(self, capsys):
        code, out, _ = run(capsys, "tnk", "8", "5")
        assert code == 0 and out.strip() == "92"

    def test_contributions(self, capsys):
        code, out, _ = run(capsys, "tnk", "8", "5", "--contributions")
        lines = out.strip().splitlines()
        assert lines[0] == "92"
        assert "1+1+1+1+1+1+1+1 : 56" in lines

    def test_contributions_separate_the_parts(self, capsys):
        # (11, 1) contributes C(2, 1) = 2; run together it would read as 1+1+1
        code, out, _ = run(capsys, "tnk", "12", "1", "--contributions")
        assert code == 0 and out.splitlines()[:4] == ["399", "12 : 1", "11+1 : 2", "10+2 : 2"]

    def test_contributions_enumerate_the_partitions_once(self, capsys, monkeypatch):
        original, calls = partitions.enumerate_partitions, []

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(partitions, "enumerate_partitions", counting)
        code, out, _ = run(capsys, "tnk", "8", "5", "--contributions", "--output", "json")
        assert code == 0 and calls == [8]
        result = json.loads(out)["result"]
        assert result["value"] == 92 == sum(c["count"] for c in result["contributions"])

    @pytest.mark.parametrize("extra", [[], ["--contributions"]], ids=["cell", "contributions"])
    def test_negative_arguments_exit_2(self, capsys, extra):
        code, out, err = run(capsys, "tnk", "3", "-1", *extra)
        assert code == 2 and out == ""
        assert err == "error: T(3, -1) undefined for negative arguments\n"

    @pytest.mark.parametrize(
        "output, expected",
        [("text", "1\n1 1\n2 3 1\n3 6 4 1\n"),
         ("csv", "1\n1,1\n2,3,1\n3,6,4,1\n")],
    )
    def test_triangle_bytes(self, capsys, output, expected):
        code, out, _ = run(capsys, "tnk", "--triangle", "3", "--output", output)
        assert code == 0 and out == expected

    def test_triangle_json(self, capsys):
        code, out, _ = run(capsys, "tnk", "--triangle", "3", "--output", "json")
        assert code == 0
        assert result_text(out) == '{"n_max": 3, "rows": [[1], [1, 1], [2, 3, 1], [3, 6, 4, 1]]}'

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "tnk")
        assert code == 2

    def test_triangle_negative_exit_2(self, capsys):
        code, out, err = run(capsys, "tnk", "--triangle", "-1")
        assert code == 2 and out == ""
        assert err == "error: n_max must be >= 0, got -1\n"

    @pytest.mark.parametrize("fmt", [[], ["--file-format", "csv"]], ids=["auto", "csv"])
    @pytest.mark.parametrize("n", [0, 1, 12, 20])
    def test_crosscheck_ok(self, capsys, tmp_path, n, fmt):
        # the triangle's own CSV output reads back cell for cell
        _, csv, _ = run(capsys, "tnk", "--triangle", str(n), "--output", "csv")
        f = tmp_path / "t.csv"
        f.write_text(csv)
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f), *fmt)
        assert (code, out, err) == (0, f"checked {(n + 1) * (n + 2) // 2} cells\nOK\n", "")

    def test_crosscheck_fault_exit_1(self, capsys, tmp_path):
        rows = [list(r) for r in t_triangle(4).rows]
        rows[3][1] = 999
        f = tmp_path / "t.csv"
        f.write_text("\n".join(",".join(map(str, r)) for r in rows))
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 1
        assert "MISMATCH at (n=3, k=1)" in out

    def test_crosscheck_mismatch_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(faulty_triangle(tmp_path)))
        assert code == 1
        assert out.splitlines() == [
            "checked 15 cells",
            "MISMATCH at (n=3, k=1): computed 6, file has 7",
            "MISMATCH at (n=4, k=4): computed 1, file has 2",
            "FAILED",
        ]

    def test_crosscheck_json_payload(self, capsys, tmp_path):
        f = faulty_triangle(tmp_path)
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f), "--output", "json")
        assert code == 1
        assert result_text(out) == (
            '{"checked": 15, "ok": false, "mismatches": ['
            '{"n": 3, "k": 1, "expected": 6, "found": 7}, '
            '{"n": 4, "k": 4, "expected": 1, "found": 2}]}'
        )
        f.write_text(triangle_csv(t_triangle(6).rows))
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f), "--output", "json")
        assert code == 0
        assert result_text(out) == '{"checked": 28, "ok": true, "mismatches": []}'

    def test_crosscheck_offset_bfile_exit_1(self, capsys, tmp_path):
        # index 5 is T(2, 2) = 1 and index 6 is T(3, 0) = 3
        f = tmp_path / "t.b"
        f.write_text("5 1\n6 1\n")
        code, out, _ = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 1
        assert out.splitlines() == [
            "checked 2 cells", "MISMATCH at (n=3, k=0): computed 3, file has 1", "FAILED",
        ]

    @pytest.mark.parametrize(
        "text, fmt", [("", "auto"), ("# no cells\n\n", "bfile")], ids=["empty", "comments"]
    )
    def test_crosscheck_without_cells_exit_2(self, capsys, tmp_path, text, fmt):
        f = tmp_path / "t.b"
        f.write_text(text)
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f), "--file-format", fmt)
        assert code == 2 and out == ""
        assert err == "error: no triangle cells to check\n"

    def test_crosscheck_malformed_exit_2(self, capsys, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1\n1,2,3\n")
        code, _, err = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 2 and "line 2" in err

    def test_crosscheck_bfile_extra_field_exit_2(self, capsys, tmp_path):
        f = tmp_path / "t.b"
        f.write_text("0 1\n1 1 7\n")
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f), "--file-format", "bfile")
        assert code == 2 and out == ""
        assert err == "error: line 2: expected 'index value', got '1 1 7'\n"

    def test_crosscheck_signed_entry_exit_2(self, capsys, tmp_path):
        # '+1' is no integer in a triangle file, as it is none in PERM
        f = tmp_path / "t.csv"
        f.write_text("+1\n1,1\n2,3,1\n")
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 2 and out == ""
        assert err == "error: line 1: non-integer entry '+1'\n"

    # spreadsheet programs save UTF-8 CSV with a byte-order mark, and often
    # with CRLF line ends
    @pytest.mark.parametrize(
        "data, cells",
        [(b"1\n1,1\n2,3,1\n", 6), (b"1\r\n1,1\r\n2,3,1\r\n", 6), (b"0 1\n1 1\n2 1\n", 3)],
        ids=["csv", "csv-crlf", "bfile"],
    )
    def test_crosscheck_with_byte_order_mark(self, capsys, tmp_path, data, cells):
        f = tmp_path / "t.txt"
        f.write_bytes(b"\xef\xbb\xbf" + data)
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f))
        assert (code, out, err) == (0, f"checked {cells} cells\nOK\n", "")

    # a file is read as UTF-8 whatever the locale
    @pytest.mark.parametrize(
        "name, data",
        [("missing.csv", None), (".", None), ("t.csv", b"\xff\n1,1\n")],
        ids=["missing", "directory", "not-utf-8"],
    )
    def test_crosscheck_unreadable_exit_2(self, capsys, tmp_path, name, data):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        code, out, err = run(capsys, "tnk", "--crosscheck", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert len(err.splitlines()) == 1

    def test_crosscheck_beyond_partition_limit_exit_3(self, capsys, tmp_path):
        f = tmp_path / "t.b"
        f.write_text("".join(f"{i} 1\n" for i in range(62 * 63 // 2)))
        code, out, err = run(capsys, "tnk", "--crosscheck", str(f))
        assert code == 3 and out == ""
        assert err == "error: partitions of n=61 exceed the enumeration limit 60\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tnk", "120", "3"],
        ["tnk", "120", "3", "--contributions"],
        ["tnk", "--triangle", "120"],
        ["verify", "stems", "--n", "200", "--d", "100"],
    ],
    ids=["cell", "contributions", "triangle", "stems"],
)
def test_partition_enumeration_is_refused_with_exit_3(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: partitions of n=")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tnk", "3", "1", "--triangle", "3"], "error: tnk --triangle ignores N"),
        (["tnk", "8", "5", "--crosscheck", "t.csv"], "error: tnk --crosscheck ignores N"),
        (["tnk", "--triangle", "3", "--contributions"],
         "error: tnk --triangle ignores --contributions"),
        (["tnk", "--crosscheck", "t.csv", "--contributions"],
         "error: tnk --crosscheck ignores --contributions"),
        (["verify", "bijection", "--n", "5", "--d", "2", "--n-max", "3"],
         "error: verify bijection --n --d ignores --n-max"),
        (["verify", "bijection", "--n", "5", "--d", "2", "--k", "1"],
         "maxmintrees verify bijection: error: unrecognized arguments: --k 1"),
        (["verify", "bijection", "--n-max", "6", "--n", "5"],
         "error: verify bijection --n-max ignores --n"),
        (["verify", "stems", "--n", "9", "--d", "5", "--k", "1"],
         "maxmintrees verify stems: error: unrecognized arguments: --k 1"),
        (["verify", "stems", "--n", "9", "--d", "5", "--n-max", "3"],
         "maxmintrees verify stems: error: unrecognized arguments: --n-max 3"),
        (["verify", "stabilization", "--d", "1", "--n", "4"],
         "maxmintrees verify stabilization: error: unrecognized arguments: --n 4"),
        (["weight", "1 3 2", "--max-n", "3"],
         "maxmintrees weight: error: unrecognized arguments: --max-n 3"),
        (["tree", "1 3 2", "--threads", "2"],
         "maxmintrees tree: error: unrecognized arguments: --threads 2"),
        (["weight", "1 3 2", "--output", "csv"],
         "maxmintrees weight: error: argument --output: invalid choice: 'csv' "
         "(choose from 'text', 'json')"),
        (["tnk", "8", "5", "--max-n", "3"],
         "maxmintrees tnk: error: unrecognized arguments: --max-n 3"),
        (["verify", "stems", "--n", "9", "--d", "5", "--threads", "2"],
         "maxmintrees verify stems: error: unrecognized arguments: --threads 2"),
        (["tnk", "--triangle", "3", "--file-format", "csv"],
         "error: tnk --triangle ignores --file-format"),
        (["tnk", "8", "5", "--file-format", "bfile"], "error: tnk N K ignores --file-format"),
        (["tnk", "8", "5", "--output", "csv"], "error: tnk N K ignores --output csv"),
        (["tnk", "--crosscheck", "t.csv", "--output", "csv"],
         "error: tnk --crosscheck ignores --output csv"),
        (["tnk", "--crosscheck", "t.csv", "--triangle", "3"],
         "error: tnk --crosscheck ignores --triangle"),
        (["tnk", "--triangle", "3", "--crosscheck", "t.csv"],
         "error: tnk --crosscheck ignores --triangle"),
        (["verify", "bijection", "--n-max", "6", "--d", "5"],
         "error: verify bijection --n-max ignores --d"),
        (["eulerian", "6", "--max-n", "3"],
         "maxmintrees eulerian: error: unrecognized arguments: --max-n 3"),
        (["wd", "2", "--max-n", "3"],
         "maxmintrees wd: error: unrecognized arguments: --max-n 3"),
        (["verify", "bijection", "--n-max", "3", "--max-n", "3"],
         "maxmintrees verify bijection: error: unrecognized arguments: --max-n 3"),
        (["verify", "stabilization", "--d", "1", "--max-n", "3"],
         "maxmintrees verify stabilization: error: unrecognized arguments: --max-n 3"),
        # a mode given two options it ignores names the one it declares
        # first, and the shared --output csv last
        (["tnk", "--crosscheck", "t.csv", "--triangle", "3", "--output", "csv"],
         "error: tnk --crosscheck ignores --triangle"),
        (["tnk", "8", "5", "--file-format", "bfile", "--output", "csv"],
         "error: tnk N K ignores --file-format"),
    ],
    ids=["triangle-nk", "crosscheck-nk", "triangle-contributions",
         "crosscheck-contributions", "bijection-pair-n-max", "bijection-pair-k",
         "bijection-sweep-n", "stems-k", "stems-n-max", "stabilization-n",
         "weight-max-n", "tree-threads", "weight-csv", "tnk-max-n", "stems-threads",
         "triangle-file-format", "nk-file-format", "nk-csv", "crosscheck-csv",
         "crosscheck-triangle", "triangle-crosscheck", "bijection-sweep-d",
         "eulerian-max-n", "wd-max-n", "bijection-max-n", "stabilization-max-n",
         "crosscheck-triangle-csv", "nk-file-format-csv"],
)
def test_ignored_arguments_are_refused(capsys, tmp_path, monkeypatch, argv, message):
    (tmp_path / "t.csv").write_text(triangle_csv(t_triangle(6).rows))
    monkeypatch.chdir(tmp_path)
    assert_refused(*run_to_exit(capsys, *argv), message)


def test_a_long_crosscheck_cell_exits_2_with_a_short_message(capsys, tmp_path):
    f = tmp_path / "long.csv"
    f.write_text("1\n1," + "9" * 200_000 + "\n")
    code, out, err = run(capsys, "tnk", "--crosscheck", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: line 2: entry {'9' * 20}... (200000 digits) too large\n"


class TestVerify:
    def test_bijection_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--n", "5", "--d", "2")
        assert code == 0
        assert "brute=11 stems=11 T(4,2)=11 -> PASS" in out

    def test_bijection_failure_exit_1(self, capsys, monkeypatch):
        original = bijection.stem_report

        def off_by_one(n, d):
            r = original(n, d)
            return {**r, "total": r["total"] + 1}

        monkeypatch.setattr(bijection, "stem_report", off_by_one)
        code, out, _ = run(capsys, "verify", "bijection", "--n", "5", "--d", "2")
        assert code == 1
        assert "brute=11 stems=12 T(4,2)=11 -> FAIL" in out
        assert out.splitlines()[-1] == "FAILED"

    @pytest.mark.parametrize("what", ["bijection", "stems"])
    def test_outside_region_exit_2(self, capsys, monkeypatch, what):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated outside the region")

        monkeypatch.setattr(bijection, "q_eulerian", refuse)
        monkeypatch.setattr(bijection, "enumerate_stems", refuse)
        code, out, err = run(capsys, "verify", what, "--n", "4", "--d", "1")
        assert code == 2 and out == ""
        assert err == "error: n=4, d=1 lies outside the region 2d >= n-1\n"

    @pytest.mark.parametrize(
        "n, d, message",
        [("3", "0", "d=0 outside 1..2"), ("0", "0", "n must be at least 2, got 0"),
         ("1", "1", "n must be at least 2, got 1")],
    )
    @pytest.mark.parametrize("what", ["bijection", "stems"])
    def test_d_outside_domain_exit_2(self, capsys, what, n, d, message):
        code, out, err = run(capsys, "verify", what, "--n", n, "--d", d)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_bijection_fails_when_the_stem_map_is_not_injective(self, capsys, monkeypatch):
        # every stem to one partition: the totals still agree, the map does not
        monkeypatch.setattr(bijection, "stem_to_partition", lambda s, n: (1,) * (n - 1))
        code, out, _ = run(capsys, "verify", "bijection", "--n", "7", "--d", "4")
        assert code == 1
        assert out.splitlines() == [
            "n=7 d=4 weight=6: brute=22 stems=22 T(6,4)=22 -> FAIL", "FAILED",
        ]

    def test_bijection_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "OK"
        # one line per pair with 2d >= n-1
        pairs = [ln.split(" weight=")[0] for ln in lines[:-1]]
        assert pairs == [
            f"n={n} d={d}" for n in range(2, 7) for d in range(1, n) if 2 * d >= n - 1
        ]

    def test_bijection_sweep_is_refused_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verified a pair before refusing the sweep")

        monkeypatch.setattr(cli, "bijection_report", refuse)
        code, out, err = run(capsys, "verify", "bijection", "--n-max", "26")
        assert code == 3 and out == ""
        assert err == "error: n=26 exceeds the q-Eulerian order limit 25\n"

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
        assert "1 2 3 4: 56  (partition 1+1+1+1+1+1+1+1)" in out.splitlines()
        assert "total 92, T(8,5) = 92" in out

    def test_csv_refused_before_computing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before refusing csv")

        monkeypatch.setattr(cli, "stabilization_values", refuse)
        result = run_to_exit(capsys, "verify", "stabilization", "--d", "2", "--output", "csv")
        assert_refused(
            *result,
            "maxmintrees verify stabilization: error: argument --output: "
            "invalid choice: 'csv' (choose from 'text', 'json')",
        )

    def test_stabilization_checks_every_k_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated S_n before refusing a later k")

        # k = 0..3 at d = 6 ends at order 9, below the threshold 10 of k = 3
        monkeypatch.setattr(eulerian, "q_eulerian", refuse)
        code, out, err = run(capsys, "verify", "stabilization", "--d", "6")
        assert code == 2 and out == ""
        assert err == (
            "error: --d 6 checks k up to 3, which needs --n-max 10 or more (default 9)\n"
        )
        code, _, err = run(capsys, "verify", "stabilization", "--d", "5", "--k", "4")
        assert code == 2
        assert err == "error: --d 5 checks k = 4, which needs --n-max 10 or more (default 9)\n"
        # a value the user gave is named as given
        code, _, err = run(capsys, "verify", "stabilization", "--d", "6", "--n-max", "9")
        assert code == 2
        assert err == "error: --d 6 checks k up to 3, which needs --n-max 10 or more (given 9)\n"
        # a negative k is refused by the first stabilization_values call
        code, out, err = run(capsys, "verify", "stabilization", "--d", "1", "--k", "-1")
        assert code == 2 and out == ""
        assert err == "error: k must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["--d", "30"], "--d 30 checks k up to 3, which needs n=34"),
         (["--d", "1", "--k", "30"], "--d 1 checks k = 30, which needs n=32")],
        ids=["d", "k"],
    )
    def test_stabilization_above_the_order_limit_exit_3(self, capsys, monkeypatch, argv, message):
        # refused by the order limit, not by an --n-max that the limit would refuse
        def refuse(*args, **kwargs):
            raise AssertionError("computed before refusing the order")

        monkeypatch.setattr(cli, "stabilization_values", refuse)
        code, out, err = run(capsys, "verify", "stabilization", *argv)
        assert code == 3 and out == ""
        assert err == f"error: {message}, above the limit 25\n"

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


@pytest.mark.parametrize(
    "argv",
    [["verify", "bijection", "--n-max", "12"], ["wd", "1", "--terms", "11"],
     ["verify", "stabilization", "--d", "1", "--n-max", "12"]],
    ids=["bijection", "wd", "stabilization"],
)
def test_a_sweep_runs_the_recurrence_once(capsys, monkeypatch, argv):
    # every order of the sweep comes from the run to its largest order
    calls = []
    recurrence = eulerian._recurrence

    def counting(n):
        calls.append(n)
        return recurrence(n)

    monkeypatch.setattr(eulerian, "_recurrence", counting)
    eulerian.clear_cache()
    try:
        assert run(capsys, *argv)[0] == 0
    finally:
        eulerian.clear_cache()
    assert calls == [12]


@pytest.mark.parametrize(
    "argv, expected",
    [(["eulerian", "7", "--q"], 5040),
     (["wd", "1", "--terms", "3"], 2 + 6 + 24),
     (["wd", "3", "--terms", "5"], 0),
     (["verify", "bijection", "--n-max", "8"], 0),
     (["verify", "stabilization", "--d", "2", "--n-max", "8"], 0)],
    ids=["eulerian-7", "wd-1-3", "wd-3-5", "bijection-8", "stabilization-8"],
)
def test_kernel_calls_per_command(capsys, monkeypatch, argv, expected):
    # S_n is enumerated only for an order below 8 asked for first; a sweep
    # to order 8 or more reads every order off its one recurrence run
    calls = []

    def counting(p):
        calls.append(p)
        return descents_and_weight(p)

    monkeypatch.setattr(eulerian, "descents_and_weight", counting)
    eulerian.clear_cache()
    try:
        assert run(capsys, *argv)[0] == 0
    finally:
        eulerian.clear_cache()
    assert len(calls) == expected


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

    # the other commands that share the --threads parser refuse it the same way
    @pytest.mark.parametrize(
        "argv",
        [["wd", "1"], ["verify", "bijection", "--n-max", "3"],
         ["verify", "stabilization", "--d", "1"]],
        ids=["wd", "bijection", "stabilization"],
    )
    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_exit_2_on_every_command(self, capsys, argv, threads):
        code, out, err = run(capsys, *argv, "--threads", threads)
        assert code == 2 and out == ""
        assert err == f"error: --threads must be at least 1, got {threads}\n"


class RecordingStdout(io.StringIO):
    """A stdout that keeps the length of every non-empty write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        if s:
            self.writes.append(len(s))
        return super().write(s)


def run_cli_process(*argv, **popen):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.Popen(
        [sys.executable, "-m", "maxmintrees.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        **popen,
    )


class TestJsonStream:
    @pytest.mark.parametrize(
        "argv",
        [
            ["weight", EXAMPLE_15_TEXT],
            ["weight", EXAMPLE_15_TEXT, "--explain"],
            ["tree", EXAMPLE_15_TEXT, "--format", "json"],
            ["tree", EXAMPLE_15_TEXT, "--kind", "mindecomp", "--format", "dot"],
            ["eulerian", "5"],
            ["eulerian", "5", "--q"],
            ["wd", "2"],
            ["tnk", "12", "4"],
            ["tnk", "12", "4", "--contributions"],
            ["tnk", "--triangle", "6"],
            ["tnk", "--crosscheck", "TRIANGLE"],
            ["verify", "bijection", "--n-max", "5"],
            ["verify", "stems", "--n", "6", "--d", "3"],
            ["verify", "stabilization", "--d", "1", "--k", "1", "--n-max", "6"],
        ],
        ids=["weight", "weight-explain", "tree-json", "tree-dot", "eulerian", "eulerian-q",
             "wd", "tnk", "tnk-contributions", "tnk-triangle", "tnk-crosscheck",
             "bijection", "stems", "stabilization"],
    )
    def test_envelope_is_byte_identical_to_json_dumps(self, capsys, tmp_path, argv):
        triangle = tmp_path / "triangle.csv"
        triangle.write_text(triangle_csv(t_triangle(6).rows))
        argv = [str(triangle) if a == "TRIANGLE" else a for a in argv]
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_envelope_arrives_in_bounded_writes(self, monkeypatch):
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["tnk", "33", "11", "--contributions", "--output", "json"]) == 0
        out = stdout.getvalue()
        pieces = json.JSONEncoder(indent=2).iterencode(json.loads(out))
        bound = cli._JSON_BATCH * max(map(len, pieces))
        # one write of the whole document would exceed the bound
        assert len(out) > bound
        assert len(stdout.writes) > 1 and max(stdout.writes) <= bound

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_closed_stdout_exits_0_quietly(self, output):
        # with fd 1 closed at start-up the interpreter sets sys.stdout to None
        proc = run_cli_process(
            "eulerian", "5", "--q", "--output", output,
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
        )
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_reader_closing_the_pipe_mid_stream_exits_141_quietly(self):
        # the document (about 3.1 MB) is far above the pipe buffer, so the
        # reader closes its end while the envelope is still being written
        proc = run_cli_process(
            "tnk", "39", "13", "--contributions", "--output", "json",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


# int() reads the first three, and the fourth has more digits than it reads;
# an integer argument refuses each with exit 2
BAD_INTS = ["+3", "1_0", "\u0663", "9" * 4301]
# the most digits int() reads: accepted, and shown abridged in any message
LONG_INT = "9" * 4300


def fuzz_value(rng, action, flag, files):
    if action.choices is not None:
        return rng.choice(list(action.choices))
    if action.type is cli._int_arg:
        draw = rng.random()
        if draw < 0.1:
            return rng.choice(BAD_INTS)
        if draw < 0.15:
            return LONG_INT
        low = 1 if rng.random() < 0.8 else -2
        return str(rng.randint(low, 7))
    if flag is not None:  # --crosscheck FILE
        return rng.choice(files)
    if rng.random() < 0.8:  # a permutation
        k = rng.randint(1, 7)
        return " ".join(map(str, rng.sample(range(1, k + 1), k)))
    return rng.choice(["", "1 1", "0 1", "a b", "2,1,3", "1 2 x", "1.5", "-1 2"])


def fuzz_argv(rng, parser, files):
    argv = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if isinstance(action, argparse._SubParsersAction):  # a command, or a verify mode
            name = rng.choice(sorted(action.choices))
            argv += [name, *fuzz_argv(rng, action.choices[name], files)]
            continue
        flag = action.option_strings[-1] if action.option_strings else None
        if flag == "--threads":
            argv += [flag, "1"]
            continue
        given = rng.random() < (
            0.9 if flag is None or action.required else 0.6
        )
        if not given:
            continue
        if isinstance(action, argparse._StoreTrueAction):
            argv.append(flag)
        elif flag is None:
            argv.append(fuzz_value(rng, action, flag, files))
        else:
            argv += [flag, fuzz_value(rng, action, flag, files)]
    return argv


def test_fuzzed_argv_keep_the_exit_contract(capsys, tmp_path):
    good = tmp_path / "triangle.csv"
    good.write_text(triangle_csv(t_triangle(6).rows))
    files = [str(good), str(tmp_path / "missing.csv"), str(tmp_path)]
    parser = build_parser()
    rng = random.Random(7)
    bad_ints = long_ints = 0
    for _ in range(300):
        argv = fuzz_argv(rng, parser, files)
        bad = any(a in BAD_INTS for a in argv)
        bad_ints += bad
        long_ints += LONG_INT in argv
        if rng.random() < 0.05:
            argv.insert(rng.randint(1, len(argv)), rng.choice(["--bogus", "x", "-1"]))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = exc.code
        except Exception:
            pytest.fail(f"{argv}: {traceback.format_exc()}")
        err = capsys.readouterr().err
        # every accepted input lies in a domain where the checks hold, and
        # the crosscheck file is correct, so nothing reports a failure
        assert code in ((2,) if bad else (0, 2, 3)), argv
        assert "Traceback" not in err, argv
        # a 4300-digit argument is echoed abridged, and never meets str()'s
        # own digit limit
        assert len(err.encode()) < 400 and "Exceeds the limit" not in err, argv
    assert bad_ints >= 10 and long_ints >= 10


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    for argv in (["weight", "1 3 2"], ["tree", "2 1"], ["eulerian", "4", "--q"], ["wd", "2"],
                 ["tnk", "5", "2"], ["verify", "stems", "--n", "5", "--d", "2"],
                 ["verify", "stabilization", "--d", "1", "--output", "json"]):
        assert main(argv) == 0, argv
    with pytest.raises(SystemExit):  # an argparse refusal keeps the parser too
        main(["eulerian", "+3"])
    assert main(["weight", "2 1 3", "--output", "json"]) == 0
    capsys.readouterr()
    assert len(built) == 1
    # importing the module builds none: a fresh process pays for it once
    script = "import maxmintrees.cli as c; print(c._parser.cache_info().currsize)"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout == "0\n", proc.stderr


@pytest.mark.parametrize("reverse", [False, True], ids=["file-order", "reverse-order"])
def test_cli_output_matches_the_corpus(tmp_path, reverse):
    """Every case of tests/cli_corpus.py gives the bytes its committed line
    pins; rewrite the file with PYTHONPATH=src python tests/cli_corpus.py --write.
    The cases also run in reverse, so that no case's output depends on
    what the parser that main shares kept from the cases before it."""

    def by_case(lines):
        cases = {case: digest for digest, case in (line.split(" ", 1) for line in lines)}
        assert len(cases) == len(lines), "a case is listed twice"
        return cases

    committed = by_case(CORPUS.read_text().splitlines())
    ran = by_case(corpus_lines(tmp_path, reverse))
    moved = [case for case in {**committed, **ran} if committed.get(case) != ran.get(case)]
    assert not moved, f"{len(moved)} cases moved:\n" + "\n".join(moved)
