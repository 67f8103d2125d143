"""
Command-line front end.

Subcommands:

    weight PERM [--algo recursive|range|fast] [--explain]
    tree PERM [--kind maxweight|mindecomp] [--format dot|json]
    eulerian N [--q]
    wd D [--terms K]
    tnk [N K | --triangle N | --crosscheck FILE [--file-format FMT]]
    verify {bijection,stems,stabilization} ...
    bench [--fast-n N] [--range-n N] [--seed S]

Every subcommand accepts --output text|json|csv (where meaningful),
--threads for the enumeration fan-out and --max-n to move the exhaustive
guard.  JSON output wraps the payload in an envelope carrying the command
echo, parameters, elapsed time and tool version; payloads are
deterministic for fixed inputs and any thread count.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 resource
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .bijection import (
    bijection_report,
    stable_region,
    stem_report,
    wide_region,
)
from .eulerian import (
    DEFAULT_MAX_N,
    LimitExceeded,
    eulerian_polynomial,
    format_bivariate,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from .mindecomp import build_min_decomp
from .partitions import crosscheck_triangle, t_nk, t_nk_contributions, t_triangle
from .perms import parse_permutation
from .trees import build_max_weight_tree, weight_recursive
from .weights import range_details, weight_accelerated, weight_via_ranges

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_LIMIT = 3

# the definitional tree recursion is a reference implementation; refuse
# inputs deep enough to threaten the interpreter recursion limit
RECURSIVE_ALGO_LIMIT = 500


def _dot_undirected(tree) -> str:
    lines = ["graph maxweight {"]
    lines += [f"  {a} -- {b};" for a, b in tree.edges]
    lines.append("}")
    return "\n".join(lines)


def _dot_directed(tree) -> str:
    lines = ["digraph mindecomp {"]
    lines += [f"  {a} -> {b};" for a, b in tree.edges()]
    lines.append("}")
    return "\n".join(lines)


def _emit(args, result_text: str, payload, csv_text: str | None = None) -> None:
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
        print(json.dumps(envelope, indent=2))
    elif args.output == "csv":
        if csv_text is None:
            raise ValueError("csv output is not available for this command")
        print(csv_text, end="" if csv_text.endswith("\n") else "\n")
    else:
        print(result_text)


def _cmd_weight(args) -> int:
    p = parse_permutation(args.perm)
    if args.algo == "recursive":
        if len(p) > RECURSIVE_ALGO_LIMIT:
            raise LimitExceeded(
                f"recursive weight on n={len(p)} refused; use --algo fast"
            )
        w = weight_recursive(build_max_weight_tree(p))
    elif args.algo == "range":
        w = weight_via_ranges(p)
    else:
        w = weight_accelerated(p)
    payload: dict = {"n": len(p), "perm": list(p), "algo": args.algo, "weight": w}
    lines = [str(w)]
    if args.explain:
        details = range_details(p)
        payload["ranges"] = details
        for dct in details:
            lines.append(
                f"position {dct['position']} (value {dct['value']}): "
                f"range {dct['range'][0]}..{dct['range'][1]}, "
                f"{dct['descents']} descents"
            )
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


def _cmd_tree(args) -> int:
    p = parse_permutation(args.perm)
    if args.kind == "maxweight":
        t = build_max_weight_tree(p)
        dot = _dot_undirected(t)
    else:
        t = build_min_decomp(p)
        dot = _dot_directed(t)
    if args.format == "dot":
        _emit(args, dot, {"perm": list(p), "dot": dot})
    else:
        payload = t.json_dict()
        _emit(args, json.dumps(payload), {"perm": list(p), **payload})
    return EXIT_OK


def _cmd_eulerian(args) -> int:
    if args.q:
        poly = q_eulerian(args.n, max_n=args.max_n, workers=args.threads)
        payload = poly.json_dict()
        _emit(args, format_bivariate(poly), payload, "\n".join(poly.csv_rows()))
    else:
        coeffs = eulerian_polynomial(args.n, max_n=args.max_n)
        payload = {"n": args.n, "coefficients": coeffs}
        _emit(
            args,
            " ".join(str(c) for c in coeffs),
            payload,
            "d,count\n" + "\n".join(f"{d},{c}" for d, c in enumerate(coeffs)),
        )
    return EXIT_OK


def _cmd_wd(args) -> int:
    series = wd_series(args.d, args.terms, max_n=args.max_n, workers=args.threads)
    payload = series.json_dict()
    _emit(
        args,
        ",".join(str(c) for c in series.coefficients),
        payload,
        "k,a\n" + "\n".join(f"{k},{c}" for k, c in enumerate(series.coefficients)),
    )
    return EXIT_OK


def _cmd_tnk(args) -> int:
    if args.crosscheck is not None:
        try:
            report = crosscheck_triangle(args.crosscheck, fmt=args.file_format)
        except OSError as exc:
            raise ValueError(f"cannot read {args.crosscheck}: {exc.strerror}") from None
        lines = [f"checked {len(report.cells)} cells"]
        for c in report.mismatches():
            lines.append(
                f"MISMATCH at (n={c.n}, k={c.k}): "
                f"computed {c.expected}, file has {c.found}"
            )
        lines.append("OK" if report.ok else "FAILED")
        _emit(args, "\n".join(lines), report.json_dict())
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    if args.triangle is not None:
        tri = t_triangle(args.triangle)
        _emit(
            args,
            "\n".join(" ".join(str(c) for c in row) for row in tri.rows),
            tri.json_dict(),
            tri.csv_text(),
        )
        return EXIT_OK
    if args.n is None or args.k is None:
        raise ValueError("tnk needs N and K, or --triangle N, or --crosscheck FILE")
    value = t_nk(args.n, args.k)
    payload = {"n": args.n, "k": args.k, "value": value}
    lines = [str(value)]
    if args.contributions:
        contrib = t_nk_contributions(args.n, args.k)
        payload["contributions"] = [
            {"partition": list(lam), "count": c} for lam, c in contrib
        ]
        lines += [f"{''.join(map(str, lam))} : {c}" for lam, c in contrib]
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "bijection":
        if args.n is not None and args.d is not None:
            pairs = [(args.n, args.d)]
        elif args.n_max is None:
            raise ValueError("verify bijection needs --n and --d, or --n-max for a sweep")
        elif args.n_max < 2:
            raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
        else:
            region = stable_region if args.region == "stable" else wide_region
            pairs = [
                (n, d)
                for n in range(2, args.n_max + 1)
                for d in range(1, n)
                if region(n, d)
            ]
        reports = [
            bijection_report(n, d, max_n=args.max_n, workers=args.threads)
            for n, d in pairs
        ]
        lines = []
        for r in reports:
            lines.append(
                f"n={r['n']} d={r['d']} weight={r['weight']}: "
                f"brute={r['brute_count']} stems={r['stem_total']} "
                f"T({r['n'] - 1},{r['d']})={r['t_value']} -> "
                + ("PASS" if r["pass"] else "FAIL")
            )
        ok = all(r["pass"] for r in reports)
        lines.append("OK" if ok else "FAILED")
        _emit(args, "\n".join(lines), {"checks": reports, "ok": ok})
        return EXIT_OK if ok else EXIT_VERIFY_FAILED

    if args.what == "stems":
        if args.n is None or args.d is None:
            raise ValueError("verify stems needs --n and --d")
        report = stem_report(args.n, args.d)
        lines = [
            f"{' '.join(map(str, r['stem']))}: {r['count']}  "
            f"(partition {''.join(map(str, r['partition']))})"
            for r in report["stems"]
        ]
        lines.append(
            f"total {report['total']}, T({args.n - 1},{args.d}) = {report['t_value']}"
        )
        lines.append("OK" if report["ok"] else "FAILED")
        _emit(args, "\n".join(lines), report)
        return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED

    # stabilization; the default sweep stops at order 9 so a bare
    # invocation stays interactive
    if args.d is None:
        raise ValueError("verify stabilization needs --d")
    n_max = args.n_max if args.n_max is not None else min(args.max_n, 9)
    ks = range(args.k, args.k + 1) if args.k is not None else range(0, 4)
    checks = []
    for k in ks:
        vals = stabilization_values(
            args.d, k, n_max, max_n=args.max_n, workers=args.threads
        )
        stable = all(c == vals[0][1] for _, c in vals)
        checks.append({"d": args.d, "k": k, "values": vals, "stable": stable})
    ok = all(c["stable"] for c in checks)
    lines = []
    for c in checks:
        series = ", ".join(f"n={n}:{v}" for n, v in c["values"])
        lines.append(
            f"d={c['d']} k={c['k']}: {series} -> "
            + ("stable" if c["stable"] else "NOT stable")
        )
    lines.append("OK" if ok else "FAILED")
    payload = {
        "checks": [
            {**c, "values": [[n, v] for n, v in c["values"]]} for c in checks
        ],
        "ok": ok,
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    for flag, n in (("--fast-n", args.fast_n), ("--range-n", args.range_n)):
        if n < 1:
            raise ValueError(f"{flag} must be at least 1, got {n}")
    rng = random.Random(args.seed)

    def sample(n):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        return tuple(word)

    results = []
    p_fast = sample(args.fast_n)
    t0 = time.perf_counter()
    w_fast = weight_accelerated(p_fast)
    dt_fast = time.perf_counter() - t0
    results.append(("accelerated", args.fast_n, w_fast, dt_fast))
    p_rng = sample(args.range_n)
    t0 = time.perf_counter()
    w_rng = weight_via_ranges(p_rng)
    dt_rng = time.perf_counter() - t0
    results.append(("ranges", args.range_n, w_rng, dt_rng))
    t0 = time.perf_counter()
    w_cross = weight_accelerated(p_rng)
    dt_cross = time.perf_counter() - t0
    results.append(("accelerated", args.range_n, w_cross, dt_cross))
    lines = [
        f"{name:>12}  n={n:<8} weight={w:<12} {dt * 1000:9.2f} ms"
        for name, n, w, dt in results
    ]
    agree = w_rng == w_cross
    lines.append(f"agreement at n={args.range_n}: {'yes' if agree else 'NO'}")
    payload = {
        "runs": [
            {"algo": name, "n": n, "weight": w, "seconds": round(dt, 6)}
            for name, n, w, dt in results
        ],
        "agreement": agree,
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK if agree else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmintrees",
        description="Maxmin trees: permutation weights, q-Eulerian polynomials, "
        "and the two-kind partition triangle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--threads", type=int, default=1, metavar="T",
        help="parallel workers for enumeration (default 1; output unchanged)",
    )
    common.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_N, metavar="N",
        help=f"exhaustive-enumeration guard (default {DEFAULT_MAX_N})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weight", parents=[common], help="weight of a permutation")
    w.add_argument("perm", help="permutation, e.g. '1 3 2'")
    w.add_argument("--algo", choices=("recursive", "range", "fast"), default="fast")
    w.add_argument("--explain", action="store_true",
                   help="show per-non-descent subtree ranges")
    w.set_defaults(func=_cmd_weight)

    t = sub.add_parser("tree", parents=[common], help="build a tree from a permutation")
    t.add_argument("perm")
    t.add_argument("--kind", choices=("maxweight", "mindecomp"), default="maxweight")
    t.add_argument("--format", choices=("dot", "json"), default="json")
    t.set_defaults(func=_cmd_tree)

    e = sub.add_parser("eulerian", parents=[common], help="Eulerian polynomial of order n")
    e.add_argument("n", type=int)
    e.add_argument("--q", action="store_true", help="bivariate (descents, weight) version")
    e.set_defaults(func=_cmd_eulerian)

    d = sub.add_parser("wd", parents=[common], help="stabilized coefficient series")
    d.add_argument("d", type=int)
    d.add_argument("--terms", type=int, default=6)
    d.set_defaults(func=_cmd_wd)

    k = sub.add_parser("tnk", parents=[common], help="two-kind partition counts")
    k.add_argument("n", type=int, nargs="?")
    k.add_argument("k", type=int, nargs="?")
    k.add_argument("--triangle", type=int, metavar="N", help="print rows 0..N")
    k.add_argument("--contributions", action="store_true",
                   help="show per-partition contributions")
    k.add_argument("--crosscheck", metavar="FILE",
                   help="compare a triangle file cell by cell")
    k.add_argument("--file-format", choices=("auto", "csv", "bfile"), default="auto")
    k.set_defaults(func=_cmd_tnk)

    v = sub.add_parser("verify", parents=[common], help="run a verification")
    v.add_argument("what", choices=("bijection", "stems", "stabilization"))
    v.add_argument("--n", type=int)
    v.add_argument("--d", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--n-max", type=int, dest="n_max")
    v.add_argument("--region", choices=("stable", "wide"), default="stable",
                   help="(n, d) sweep region: 2d >= n-1 (stable) or n >= 2d (wide)")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", parents=[common],
                       help="time the weight algorithms on random input")
    b.add_argument("--fast-n", type=int, default=100_000)
    b.add_argument("--range-n", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=2024)
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
