"""
Command-line front end.

`maxmintrees --help` lists the commands, and `maxmintrees COMMAND --help`
the options of one; each command takes only the options it reads.

PERM is the word as one argument, or - to read it from standard input,
which lifts the operating system's limit on the length of one argument.
PERM's labels and every integer argument follow one rule, -?[0-9]+: an
integer argument such as +3, 1_0 or one past int()'s digit limit is
refused like an unknown option.  A message shows an integer of more than
20 characters by its first 20 and its length (perms.abridged_int).

main builds its parser on its first call and reuses it for the rest of
the process, so a caller that runs many commands in one process builds
the 13 argparse parsers once; importing this module builds none.

argparse refuses any other option with exit 2 before any work, with the
usage of the command that does not take it.  Where one parser serves
several modes (tnk, verify bijection), an option the chosen mode would
ignore is refused as an input error too.  eulerian --q, wd, verify
bijection and verify stabilization refuse a q-Eulerian order above
MAX_Q_ORDER = 25.  --threads is checked to be at least 1 but ignored,
since no command starts a process.  JSON output wraps the payload in an
envelope carrying the command echo, parameters, elapsed time and tool
version; payloads are deterministic for fixed inputs.  The envelope is
written in bounded batches as it is encoded, byte for byte as
json.dumps(envelope, indent=2) prints it, so no whole JSON document is
held in memory.

This module is the one place that reads input (PERM from standard input,
the --crosscheck file as UTF-8, with or without a byte-order mark) and
renders output: every format (text, JSON, CSV, DOT) is built here from
the values the library returns, and only the format that is printed is
built.  tnk --triangle N --output csv writes a file that tnk --crosscheck
reads.

--algo fast and --algo range run the one linear weight pass; --algo
mindecomp reads the weight off the minimum decomposition tree.

Exit codes: 0 success, 1 verification failed, 2 input error (including
verify bijection|stems outside 2d >= n-1), 3 resource limit exceeded,
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import groupby, islice

from . import __version__
from .bijection import bijection_report, stable_region, stem_report
from .eulerian import (
    MAX_Q_ORDER,
    LimitExceeded,
    eulerian_polynomial,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from .mindecomp import build_min_decomp, leaves, weight_via_leaves
from .partitions import crosscheck_triangle, t_nk, t_nk_contributions, t_triangle
from .perms import abridged, abridged_int, ascii_int, parse_permutation
from .trees import build_max_weight_tree
from .weights import range_details, weight_accelerated

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_LIMIT = 3

_PERM_HELP = "permutation, e.g. '1 3 2', or - to read it from standard input"

# encoder pieces joined into one write of a JSON envelope
_JSON_BATCH = 8192


# tree kind -> (DOT graph type, edge operator): maxweight trees are
# undirected, minimum decompositions point from parent to child
_DOT_STYLE = {"maxweight": ("graph", "--"), "mindecomp": ("digraph", "->")}


def _dot(edges, kind: str) -> str:
    graph, op = _DOT_STYLE[kind]
    lines = [f"{graph} {kind} {{"]
    lines += [f"  {a} {op} {b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines)


def _tree_json(edges, leaves=None) -> dict:
    """Nodes 1..n+1 and the sorted edges; a minimum decomposition adds its root and leaves."""
    out = {"nodes": list(range(1, len(edges) + 2)), "edges": [list(e) for e in edges]}
    if leaves is not None:
        out.update(root=1, leaves=sorted(leaves))
    return out


def _format_bivariate(terms) -> str:
    """((x, q), c) terms, x ascending and q descending, as "1 + x(q + 3) + x^2"."""

    def q_term(q: int, c: int) -> str:
        if q == 0:
            return str(c)
        qs = "q" if q == 1 else f"q^{q}"
        return qs if c == 1 else f"{c}{qs}"

    parts = []
    for x, group in groupby(terms, key=lambda t: t[0][0]):
        inner = " + ".join(q_term(q, c) for (_, q), c in group)
        if x == 0:
            parts.append(inner)
        else:
            xs = "x" if x == 1 else f"x^{x}"
            parts.append(xs if inner == "1" else f"{xs}({inner})")
    return " + ".join(parts)


def _csv(rows) -> str:
    """Rows of fields as CSV lines, without a trailing newline."""
    return "\n".join(",".join(map(str, row)) for row in rows)


def _refuse_ignored(args, mode: str, *reads: str) -> None:
    """Refuse, as an input error, the first option given to args' command
    that mode does not read: the command's own options in the order it
    declares them, then --output csv.  The shared --output text|json and
    --threads serve every mode."""
    given = [(a.option_strings[0] if a.option_strings else a.dest.upper(), getattr(args, a.dest))
             for a in args._parser._actions if a.dest not in ("help", "output", "threads")]
    for flag, value in [*given, ("--output csv", args.output == "csv")]:
        if flag not in reads and value is not None and value is not False:
            raise ValueError(f"{mode} ignores {flag}")


def _emit(args, payload, text, csv=None) -> None:
    """Print payload in the JSON envelope, or the string that the text or
    csv callable builds: only the format that is printed is rendered."""
    if args.output == "json":
        envelope = {
            "command": args.command,
            "parameters": {
                k: v
                for k, v in sorted(vars(args).items())
                if not k.startswith("_") and k not in ("func", "output") and v is not None
            },
            "result": payload,
            "elapsed_s": round(time.perf_counter() - args._t0, 6),
            "version": __version__,
        }
        # the indenting encoder is pure Python and lists every piece before
        # json.dumps joins them; writing bounded batches keeps the document
        # out of memory.  print, not sys.stdout.write: with fd 1 closed
        # sys.stdout is None, and print then writes nothing
        pieces = json.JSONEncoder(indent=2).iterencode(envelope)
        while chunk := "".join(islice(pieces, _JSON_BATCH)):
            print(chunk, end="")
        print()
    else:
        print((csv if args.output == "csv" else text)())


def _verdict(args, payload: dict, lines) -> int:
    """Close a check: the lines() and then OK or FAILED, and exit 0 or 1,
    both from payload["ok"]."""
    verdict = "OK" if payload["ok"] else "FAILED"
    _emit(args, payload, lambda: "\n".join([*lines(), verdict]))
    return EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED


def _read_text(what: str, path: str | None = None) -> str:
    """All of the UTF-8 file at path, less a leading byte-order mark, or of
    standard input without a path; a source that cannot be read is an input
    error that names what."""
    try:
        if path is not None:
            with open(path, encoding="utf-8-sig") as f:
                return f.read()
        if sys.stdin is None:  # the interpreter started with no standard input
            raise ValueError(f"cannot read {what}: it is closed")
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read {what}: {reason}") from None


def _perm(args) -> tuple[int, ...]:
    """PERM parsed, read from standard input when it is '-'."""
    return parse_permutation(
        args.perm if args.perm != "-" else _read_text("PERM from standard input")
    )


def _cmd_weight(args) -> int:
    p = _perm(args)
    details = range_details(p) if args.explain else []
    if args.algo == "mindecomp":
        w = weight_via_leaves(build_min_decomp(p))
    elif args.explain:
        # the rows hold the stack pass's ranges: read the weight off them
        w = sum(r["descents"] for r in details) - len(p)
    else:
        w = weight_accelerated(p)
    payload: dict = {"n": len(p), "perm": p, "algo": args.algo, "weight": w}
    if args.explain:
        payload["ranges"] = details
    _emit(args, payload, lambda: "\n".join([str(w)] + [
        f"position {r['position']} (value {r['value']}): "
        f"range {r['range'][0]}..{r['range'][1]}, {r['descents']} descents"
        for r in details
    ]))
    return EXIT_OK


def _cmd_tree(args) -> int:
    p = _perm(args)
    if args.kind == "maxweight":
        edges, tips = build_max_weight_tree(p).edges, None
    else:
        parent = build_min_decomp(p)
        edges, tips = [(parent[v], v) for v in range(2, len(parent))], leaves(parent)
    dot = args.format == "dot"
    tree = {"dot": _dot(edges, args.kind)} if dot else _tree_json(edges, tips)
    _emit(args, {"perm": p, **tree}, lambda: tree["dot"] if dot else json.dumps(tree))
    return EXIT_OK


def _cmd_eulerian(args) -> int:
    if args.q:
        # x ascending, q descending: the one order of every rendering
        terms = sorted(q_eulerian(args.n).items(), key=lambda t: (t[0][0], -t[0][1]))
        rows = [(x, q, c) for (x, q), c in terms]
        payload: dict = {"n": args.n, "terms": [{"x": x, "q": q, "c": c} for x, q, c in rows]}
        header, text = ("x", "q", "c"), lambda: _format_bivariate(terms)
    else:
        coeffs = eulerian_polynomial(args.n)
        rows = list(enumerate(coeffs))
        payload = {"n": args.n, "coefficients": coeffs}
        header, text = ("d", "count"), lambda: " ".join(map(str, coeffs))
    _emit(args, payload, text, lambda: _csv([header, *rows]))
    return EXIT_OK


def _cmd_wd(args) -> int:
    coeffs = wd_series(args.d, args.terms)
    _emit(
        args,
        {"d": args.d, "coefficients": list(coeffs)},
        lambda: ",".join(map(str, coeffs)),
        lambda: _csv([("k", "a"), *enumerate(coeffs)]),
    )
    return EXIT_OK


def _cmd_tnk(args) -> int:
    if args.crosscheck is not None:
        _refuse_ignored(args, "tnk --crosscheck", "--crosscheck", "--file-format")
        text = _read_text(args.crosscheck, args.crosscheck)
        report = crosscheck_triangle(text, fmt=args.file_format or "auto")
        return _verdict(args, report, lambda: [f"checked {report['checked']} cells"] + [
            f"MISMATCH at (n={m['n']}, k={m['k']}): "
            f"computed {m['expected']}, file has {m['found']}"
            for m in report["mismatches"]
        ])
    if args.triangle is not None:
        _refuse_ignored(args, "tnk --triangle", "--triangle", "--output csv")
        rows = t_triangle(args.triangle).rows
        _emit(
            args,
            {"n_max": args.triangle, "rows": [list(row) for row in rows]},
            lambda: "\n".join(" ".join(map(str, row)) for row in rows),
            lambda: _csv(rows),
        )
        return EXIT_OK
    if args.n is None or args.k is None:
        raise ValueError("tnk needs N and K, or --triangle N, or --crosscheck FILE")
    _refuse_ignored(args, "tnk N K", "N", "K", "--contributions")
    if args.contributions:
        # one enumeration: T(n, k) is the sum of the listed contributions
        contrib = t_nk_contributions(args.n, args.k)
        value = sum(c for _, c in contrib)
    else:
        contrib, value = [], t_nk(args.n, args.k)
    payload: dict = {"n": args.n, "k": args.k, "value": value}
    if args.contributions:
        payload["contributions"] = [{"partition": lam, "count": c} for lam, c in contrib]
    _emit(args, payload, lambda: "\n".join(
        [str(value)] + [f"{'+'.join(map(str, lam))} : {c}" for lam, c in contrib]
    ))
    return EXIT_OK


def _cmd_verify_bijection(args) -> int:
    if args.n is not None and args.d is not None:
        _refuse_ignored(args, "verify bijection --n --d", "--n", "--d")
        pairs = [(args.n, args.d)]
    elif args.n_max is None:
        raise ValueError("verify bijection needs --n and --d, or --n-max for a sweep")
    else:
        _refuse_ignored(args, "verify bijection --n-max", "--n-max")
        if args.n_max < 2:
            raise ValueError(f"--n-max must be at least 2, got {abridged_int(args.n_max)}")
        # the sweep's largest order first: its guard refuses n_max before any
        # work, and the sweep's own call at that order hits the cache
        q_eulerian(args.n_max)
        pairs = [(n, d) for n in range(2, args.n_max + 1) for d in range(1, n)
                 if stable_region(n, d)]
    reports = [bijection_report(n, d) for n, d in pairs]
    return _verdict(args, {"checks": reports, "ok": all(r["pass"] for r in reports)}, lambda: [
        f"n={r['n']} d={r['d']} weight={r['weight']}: "
        f"brute={r['brute_count']} stems={r['stem_total']} "
        f"T({r['n'] - 1},{r['d']})={r['t_value']} -> " + ("PASS" if r["pass"] else "FAIL")
        for r in reports
    ])


def _cmd_verify_stems(args) -> int:
    report = stem_report(args.n, args.d)
    return _verdict(args, report, lambda: [
        f"{' '.join(map(str, r['stem']))}: {r['count']}  "
        f"(partition {'+'.join(map(str, r['partition']))})"
        for r in report["stems"]
    ] + [f"total {report['total']}, T({args.n - 1},{args.d}) = {report['t_value']}"])


def _cmd_verify_stabilization(args) -> int:
    # the default sweep stops at order 9 so a bare invocation stays interactive
    n_max = args.n_max if args.n_max is not None else 9
    ks = [args.k] if args.k is not None else range(4)
    need = args.d + ks[-1] + 1  # the threshold order of the largest k
    if args.d >= 1 and ks[0] >= 0 and n_max < need:
        which = "k up to 3" if args.k is None else f"k = {abridged_int(args.k)}"
        what = f"--d {abridged_int(args.d)} checks {which}"
        if need > MAX_Q_ORDER:  # no --n-max would pass the order limit
            raise LimitExceeded(
                f"{what}, which needs n={abridged_int(need)}, above the limit {MAX_Q_ORDER}")
        given = "default" if args.n_max is None else "given"
        raise ValueError(
            f"{what}, which needs --n-max {need} or more ({given} {abridged_int(n_max)})")
    # the first k's call refuses a bad d or k and the order limit before any work
    checks = []
    for k in ks:
        vals = stabilization_values(args.d, k, n_max)
        stable = all(c == vals[0][1] for _, c in vals)
        checks.append({"d": args.d, "k": k, "values": vals, "stable": stable})
    return _verdict(args, {"checks": checks, "ok": all(c["stable"] for c in checks)}, lambda: [
        f"d={c['d']} k={c['k']}: {', '.join(f'n={n}:{v}' for n, v in c['values'])} -> "
        + ("stable" if c["stable"] else "NOT stable")
        for c in checks
    ])


def _int_arg(text: str) -> int:
    """An integer argument, read by the PERM rule -?[0-9]+; argparse
    refuses any other text in its own words, showing a long one abridged."""
    try:
        return ascii_int(text)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid int value: {abridged(text, repr)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmintrees",
        description="Maxmin trees: permutation weights, q-Eulerian polynomials, "
        "and the two-kind partition triangle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # option groups shared by the commands that read them
    text_json = argparse.ArgumentParser(add_help=False)
    text_json.add_argument("--output", choices=("text", "json"), default="text",
                           help="output format (default text)")
    with_csv = argparse.ArgumentParser(add_help=False)
    with_csv.add_argument("--output", choices=("text", "json", "csv"), default="text",
                          help="output format (default text)")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_int_arg, default=1, metavar="T",
                         help="ignored: no command starts a process (>= 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, *groups, **kwargs):
        """Register a command on parent with its shared option groups, its
        handler and its parser, whose usage an argparse refusal shows."""
        p = parent.add_parser(name, parents=groups, **kwargs)
        p.set_defaults(func=func, _parser=p)
        return p

    w = command(sub, "weight", _cmd_weight, text_json, help="weight of a permutation")
    w.add_argument("perm", help=_PERM_HELP)
    w.add_argument("--algo", choices=("mindecomp", "range", "fast"), default="fast",
                   help="mindecomp: leaves of the minimum decomposition tree; "
                   "range and fast: one linear pass (default fast)")
    w.add_argument("--explain", action="store_true",
                   help="show per-non-descent subtree ranges")

    t = command(sub, "tree", _cmd_tree, text_json, help="build a tree from a permutation")
    t.add_argument("perm", help=_PERM_HELP)
    t.add_argument("--kind", choices=("maxweight", "mindecomp"), default="maxweight")
    t.add_argument("--format", choices=("dot", "json"), default="json")

    e = command(sub, "eulerian", _cmd_eulerian, with_csv, threads,
                help="Eulerian polynomial of order n")
    e.add_argument("n", type=_int_arg)
    e.add_argument("--q", action="store_true", help="bivariate (descents, weight) version")

    d = command(sub, "wd", _cmd_wd, with_csv, threads, help="stabilized coefficient series")
    d.add_argument("d", type=_int_arg)
    d.add_argument("--terms", type=_int_arg, default=6)

    k = command(sub, "tnk", _cmd_tnk, with_csv, help="two-kind partition counts")
    k.add_argument("n", type=_int_arg, nargs="?")
    k.add_argument("k", type=_int_arg, nargs="?")
    k.add_argument("--triangle", type=_int_arg, metavar="N",
                   help="print rows 0..N (the one tnk mode with csv output)")
    k.add_argument("--contributions", action="store_true",
                   help="show per-partition contributions")
    k.add_argument("--crosscheck", metavar="FILE",
                   help="compare a triangle file cell by cell")
    k.add_argument("--file-format", choices=("auto", "csv", "bfile"),
                   help="with --crosscheck: format of FILE (default auto)")

    v = sub.add_parser("verify", help="run a verification")
    modes = v.add_subparsers(dest="what", required=True)
    b = command(modes, "bijection", _cmd_verify_bijection, text_json, threads,
                help="brute force, stems and T(n-1, d) agree")
    b.add_argument("--n", type=_int_arg)
    b.add_argument("--d", type=_int_arg)
    b.add_argument("--n-max", type=_int_arg, dest="n_max",
                   help="sweep every (n, d) with 2 <= n <= N and 2d >= n-1")

    s = command(modes, "stems", _cmd_verify_stems, text_json, help="list the stems of (n, d)")
    s.add_argument("--n", type=_int_arg, required=True)
    s.add_argument("--d", type=_int_arg, required=True)

    # no abbreviations here, or --n would be read as --n-max
    z = command(modes, "stabilization", _cmd_verify_stabilization, text_json, threads,
                allow_abbrev=False, help="coefficients stop depending on n")
    z.add_argument("--d", type=_int_arg, required=True)
    z.add_argument("--k", type=_int_arg, help="check only this k (default 0..3)")
    z.add_argument("--n-max", type=_int_arg, dest="n_max",
                   help="last order to check (default 9)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads: built on the first call, then shared, since
    every per-call value lives on the Namespace that parsing returns."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the command that refused them
        args._parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args._t0 = time.perf_counter()
    try:
        threads = vars(args).get("threads", 1)  # 1 where the command lacks the option
        if threads < 1:
            raise ValueError(f"--threads must be at least 1, got {abridged_int(threads)}")
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays quiet, and exit as cat and seq do on SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
