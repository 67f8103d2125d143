"""
The byte-identity corpus of the command line.

``_cases`` lists the argv, some with a standard input; cli_corpus.txt,
next to this file, holds one line per case: the sha256 of its exit code,
stdout and stderr, then the case.  The test
tests/test_cli.py::test_cli_output_matches_the_corpus runs every case
through cli.main in-process, once in file order and once in reverse, and
names each one whose output moved.
After a change that moves an output on purpose, rewrite the file with

    PYTHONPATH=src python tests/cli_corpus.py --write

commit it, and list the moved argv with the change.

Each case runs with the q-Eulerian cache cleared, COLUMNS=80 (argparse
wraps its usage lines to the terminal) and the working directory at a
temporary directory that holds the crosscheck files of FILES.  The digest
masks the JSON envelope's elapsed_s and the temporary directory's path,
which an argv names as {tmp}.  --help is left out: its text depends on
the terminal.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from maxmintrees import cli, eulerian

CORPUS = Path(__file__).with_name("cli_corpus.txt")

TRIANGLE_6 = [
    [1], [1, 1], [2, 3, 1], [3, 6, 4, 1], [5, 12, 11, 5, 1], [7, 20, 24, 16, 6, 1],
    [11, 35, 49, 41, 22, 7, 1],
]
CSV_6 = "".join(",".join(map(str, row)) + "\n" for row in TRIANGLE_6)
BFILE_6 = "".join(f"{i} {v}\n" for i, v in enumerate(v for row in TRIANGLE_6 for v in row))

# the crosscheck files, by name: good ones, faulty ones (exit 1) and bad ones
FILES = {
    "t.csv": CSV_6,
    "good.csv": CSV_6,
    "good.b": BFILE_6,
    "bom.csv": "\ufeff# T(n, k)\n\n" + CSV_6.replace(",", ", "),
    "comments.b": "# A256193\n\n" + BFILE_6,
    "faulty.csv": CSV_6.replace("3,6,4,1", "3,7,4,1").replace("7,1\n", "7,2\n"),
    "faulty.b": BFILE_6.replace("12 11", "12 10"),
    "empty.csv": "",
    "only-comments.csv": "# nothing\n\n",
    "short-row.csv": "1\n1,1\n2,3\n",
    "word.csv": "1\n1,x\n",
    "plus.csv": "+1\n",
    "gap.b": "0 1\n2 1\n",
    "negative.b": "-1 1\n0 1\n",
    "three-fields.b": "0 1 2\n",
    "word.b": "0 1\n1 x\n",
    # int() reads at most 4300 digits
    "long-cell.csv": "1\n1," + "9" * 4301 + "\n",
    "long-cell.b": "0 1\n1 " + "9" * 4301 + "\n",
}
# ... and ones that cannot be read
UNREADABLE = ["missing.csv", "{tmp}", "latin1.csv"]
LATIN1 = b"\xff\n1,1\n"

EXAMPLE_15 = "1 12 15 9 10 5 7 11 6 4 13 3 8 2 14"


def _shuffled(n: int) -> str:
    word = list(range(1, n + 1))
    random.Random(n).shuffle(word)
    return " ".join(map(str, word))


GOOD_WORDS = [
    "1", "1 2", "2 1", "1 3 2", "2 1 3", "3 1 2", "2,1,3", " 2\t1 3 \n", EXAMPLE_15,
    _shuffled(40), _shuffled(100), _shuffled(300),
    " ".join(map(str, range(1, 301))), " ".join(map(str, range(300, 0, -1))),
]
BAD_WORDS = [
    "", " ", "1 1", "0 1", "3", "1 3", "a b", "1 2 x", "1.5", "-1 2", "1_0", "+1",
    "\uff11", "1 2 3 4 4", "2,,1",
]
WORDS = GOOD_WORDS + BAD_WORDS


def _cases():
    """Every case of the corpus as (argv, standard input or None)."""
    yield ["--version"], None
    for argv in ([], ["bogus"], ["verify"], ["verify", "bogus"], ["weight"], ["tree"],
                 ["eulerian"], ["wd"], ["eulerian", "x"], ["tnk", "1.5", "1"],
                 ["weight", "1 2", "--bogus"], ["weight", "1 2", "extra"]):
        yield argv, None
    for word in WORDS:
        for algo, explain, output in product(("mindecomp", "range", "fast"), (0, 1),
                                             ("text", "json")):
            yield ["weight", word, "--algo", algo, *["--explain"][:explain],
                   "--output", output], None
        for kind, fmt, output in product(("maxweight", "mindecomp"), ("dot", "json"),
                                         ("text", "json")):
            yield ["tree", word, "--kind", kind, "--format", fmt, "--output", output], None
        for argv in (["weight", "-"], ["weight", "-", "--algo", "mindecomp", "--explain",
                                                    "--output", "json"],
                     ["tree", "-"], ["tree", "-", "--kind", "mindecomp", "--format", "dot"]):
            yield argv, word
    for digits in (4300, 4301):
        yield ["weight", "1 " + "9" * digits], None
    yield ["tree", "1 " + "9" * 4301], None
    yield ["weight", "-"], "1 " + "9" * 4301
    yield ["weight", "1 2", "--output", "csv"], None
    yield ["tree", "1 2", "--format", "csv"], None

    outputs = ("text", "json", "csv")
    for n, q, output in product((-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 26, 1001), (0, 1), outputs):
        yield ["eulerian", str(n), *["--q"][:q], "--output", output], None
    yield ["eulerian", "25", "--q", "--output", "json"], None  # the order limit, whole
    for d, terms, output in product((-1, 0, 1, 2, 3, 5), (None, -1, 0, 1, 3, 6), outputs):
        yield ["wd", str(d), *([] if terms is None else ["--terms", str(terms)]),
               "--output", output], None
    yield ["wd", "1", "--terms", "25"], None
    yield ["wd", "20", "--terms", "6"], None

    for (n, k), contributions, output in product(
        ((0, 0), (1, 0), (1, 1), (3, 1), (5, 2), (8, 5), (12, 1), (10, 10), (5, 6),
         (-1, 0), (3, -1), (120, 3)),
        (0, 1), outputs,
    ):
        yield ["tnk", str(n), str(k), *["--contributions"][:contributions],
               "--output", output], None
    for argv in (["tnk"], ["tnk", "5"], ["tnk", "--contributions"],
                 ["tnk", "--file-format", "csv"]):
        yield argv, None
    for n, output in product((-1, 0, 1, 2, 3, 6, 10, 120), outputs):
        yield ["tnk", "--triangle", str(n), "--output", output], None
    for name, fmt, output in product([*FILES, *UNREADABLE, "{tmp}/good.csv", "{tmp}/missing.csv"],
                                     (None, "auto", "csv", "bfile"), outputs):
        yield ["tnk", "--crosscheck", name, *([] if fmt is None else ["--file-format", fmt]),
               "--output", output], None

    outputs = ("text", "json")
    pairs = [(n, d) for n in range(2, 9) for d in range(1, n)] + [(0, 0), (1, 1), (3, 0), (3, 3)]
    for (n, d), what, output in product(pairs, ("bijection", "stems"), outputs):
        yield ["verify", what, "--n", str(n), "--d", str(d), "--output", output], None
    for n_max, output in product((-1, 1, 2, 3, 5, 8, 10, 26), outputs):
        yield ["verify", "bijection", "--n-max", str(n_max), "--output", output], None
    for argv in (["verify", "bijection"], ["verify", "bijection", "--n", "5"],
                 ["verify", "bijection", "--d", "2"], ["verify", "stems", "--n", "5"],
                 ["verify", "stems", "--n", "200", "--d", "100"],
                 ["verify", "stabilization"], ["verify", "stabilization", "--d", "x"]):
        yield argv, None
    for d, k, n_max, output in product((-1, 0, 1, 2, 3), (None, -1, 0, 2, 3),
                                       (None, 5, 9, 26), outputs):
        yield ["verify", "stabilization", "--d", str(d),
               *([] if k is None else ["--k", str(k)]),
               *([] if n_max is None else ["--n-max", str(n_max)]), "--output", output], None
    yield ["verify", "stabilization", "--d", "20", "--k", "5", "--n-max", "25"], None

    for command, threads in product(
        (["eulerian", "5", "--q"], ["wd", "2"], ["verify", "bijection", "--n", "5", "--d", "2"],
         ["verify", "bijection", "--n-max", "5"], ["verify", "stabilization", "--d", "1"],
         ["weight", "1 2"], ["tree", "1 2"], ["tnk", "3", "1"], ["verify", "stems", "--n", "5",
                                                                 "--d", "2"]),
        ("0", "-1", "1", "2", "x"),
    ):
        yield [*command, "--threads", threads], None

    # each of the 15 integer arguments reads by the PERM rule -?[0-9]+,
    # refuses +3 and accepts 4300 digits, which a message shows abridged;
    # the first argv of each command also meets 1_0, a non-ASCII digit and
    # a token of 4301 digits, one past int()'s limit
    commands = set()
    for argv in (
        ["eulerian", "{}"], ["eulerian", "5", "--threads", "{}"],
        ["wd", "1", "--threads", "{}"], ["wd", "{}"], ["wd", "1", "--terms", "{}"],
        ["tnk", "{}", "1"], ["tnk", "3", "{}"], ["tnk", "--triangle", "{}"],
        ["verify", "bijection", "--n-max", "{}"],
        ["verify", "bijection", "--n", "{}", "--d", "2"],
        ["verify", "bijection", "--n", "5", "--d", "{}"],
        ["verify", "stems", "--n", "{}", "--d", "2"], ["verify", "stems", "--n", "5", "--d", "{}"],
        ["verify", "stabilization", "--d", "1", "--n-max", "{}"],
        ["verify", "stabilization", "--d", "{}"],
        ["verify", "stabilization", "--d", "1", "--k", "{}"],
    ):
        command = argv[0] if argv[0] != "verify" else argv[1]
        tokens = ["+3", "9" * 4300] + (
            [] if command in commands else ["1_0", "\u0663", "9" * 4301])
        commands.add(command)
        for token in tokens:
            yield [token if a == "{}" else a for a in argv], None
    # at 4300 digits, wd's D and --terms and verify stabilization's --d and
    # --k make a threshold order of 4301 digits, more than str() writes,
    # which the order limit reports without converting it
    yield ["verify", "stabilization", "--d", "2", "--k", "9" * 4300], None

    # the rows of tests/test_cli.py::test_ignored_arguments_are_refused, but
    # for tnk 8 5 and tnk --crosscheck t.csv with --output csv, which the
    # tnk loops above yield
    for argv in (
        ["tnk", "3", "1", "--triangle", "3"], ["tnk", "8", "5", "--crosscheck", "t.csv"],
        ["tnk", "--triangle", "3", "--contributions"],
        ["tnk", "--crosscheck", "t.csv", "--contributions"],
        ["verify", "bijection", "--n", "5", "--d", "2", "--n-max", "3"],
        ["verify", "bijection", "--n", "5", "--d", "2", "--k", "1"],
        ["verify", "bijection", "--n-max", "6", "--n", "5"],
        ["verify", "stems", "--n", "9", "--d", "5", "--k", "1"],
        ["verify", "stems", "--n", "9", "--d", "5", "--n-max", "3"],
        ["verify", "stabilization", "--d", "1", "--n", "4"],
        ["weight", "1 3 2", "--max-n", "3"], ["tree", "1 3 2", "--threads", "2"],
        ["weight", "1 3 2", "--output", "csv"], ["tnk", "8", "5", "--max-n", "3"],
        ["verify", "stems", "--n", "9", "--d", "5", "--threads", "2"],
        ["tnk", "--triangle", "3", "--file-format", "csv"],
        ["tnk", "8", "5", "--file-format", "bfile"],
        ["tnk", "--crosscheck", "t.csv", "--triangle", "3"],
        ["tnk", "--triangle", "3", "--crosscheck", "t.csv"],
        ["verify", "bijection", "--n-max", "6", "--d", "5"],
        ["eulerian", "6", "--max-n", "3"], ["wd", "2", "--max-n", "3"],
        ["verify", "bijection", "--n-max", "3", "--max-n", "3"],
        ["verify", "stabilization", "--d", "1", "--max-n", "3"],
        ["tnk", "--crosscheck", "t.csv", "--triangle", "3", "--output", "csv"],
        ["tnk", "8", "5", "--file-format", "bfile", "--output", "csv"],
    ):
        yield argv, None


def _case_text(argv, stdin) -> str:
    return json.dumps(argv) + ("" if stdin is None else " < " + json.dumps(stdin))


def _run(argv, stdin, tmp: str) -> str:
    """The sha256 of what cli.main(argv) gives: exit code, stdout, stderr."""
    eulerian.clear_cache()
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin or "")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:  # argparse refusing the argv, or --version
            code = exc.code
    stdout = re.sub(r'("elapsed_s": )[^,\n]+', r"\g<1>0", out.getvalue())
    result = json.dumps([code, stdout.replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}")])
    return hashlib.sha256(result.encode()).hexdigest()


def corpus_lines(tmp: Path, reverse: bool = False) -> list[str]:
    """One "sha256 case" line per case, run in the directory tmp, in file
    order or in reverse."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    (tmp / "latin1.csv").write_bytes(LATIN1)
    saved = os.getcwd(), os.environ.get("COLUMNS"), sys.stdin
    os.chdir(tmp)
    os.environ["COLUMNS"] = "80"
    try:
        cases = list(_cases())
        return [f"{_run(argv, stdin, str(tmp))} {_case_text(argv, stdin)}"
                for argv, stdin in (reversed(cases) if reverse else cases)]
    finally:
        os.chdir(saved[0])
        if saved[1] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[1]
        sys.stdin = saved[2]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write   (rewrites {CORPUS.name})")
    with tempfile.TemporaryDirectory() as tmp:
        lines = corpus_lines(Path(tmp).resolve())
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} cases written to {CORPUS}")
