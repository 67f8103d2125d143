"""
The benchmark's child process; ``run.py`` starts one per run, with ``src``
on PYTHONPATH.

    worker.py run WORKLOAD SEED SECONDS TRACE   run the ops, check them, print JSON
    worker.py setup WORKLOAD                    import the CLI, run one warm-up op
    worker.py probe                             time the CLI import and lazy imports

Ops are driven in-process through ``maxmintrees.cli.main(argv)`` with stdout
captured, not through a CLI subprocess per op: one argv string above
128 KiB cannot be exec'd (E2BIG; ``maxmintrees weight`` already fails at
30 000 letters), so 1e5- and 1e6-letter words could not reach the CLI any
other way.  ``eulerian.clear_cache()`` runs before every op, so each op is
as cold as a fresh CLI process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3

WARMUP = {
    # numpy is imported lazily from 2048 letters on
    "words": lambda: ["weight", " ".join(map(str, random.Random(0).sample(range(1, 2049), 2048)))],
    # the process pool starts at n >= 7
    "enumeration": lambda: ["eulerian", "7", "--q", "--threads", "2"],
    "triangle": lambda: ["tnk", "--triangle", "20"],
}


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _call(main, argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc: int | str = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a benchmark crash
            rc = "traceback"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _digest(op: dict, out: str) -> str:
    if op.get("format") == "json" and op["cmd"] != "tree":
        try:
            env = json.loads(out)
            env.pop("elapsed_s", None)
            out = json.dumps(env, sort_keys=True)
        except ValueError:
            pass
    return hashlib.sha256(out.encode()).hexdigest()


def run_pass(ops, argvs, main, clear_cache, tracer=None) -> dict:
    lat, cpu, cal, results = [], [], [], []
    t_start = time.perf_counter()
    for op, argv in zip(ops, argvs):
        cal.append(speed.loop_s())
        clear_cache()
        if tracer:
            tracer.start_op(op["id"])
        c0 = _cpu()
        t0 = time.perf_counter()
        rc, out, err = _call(main, argv)
        t1 = time.perf_counter()
        cpu.append(_cpu() - c0)
        lat.append(t1 - t0)
        results.append((rc, out, err))
    return {
        "wall_s": time.perf_counter() - t_start,
        "lat": lat,
        "op_cpu": cpu,
        "speed": speed.factor(cal),
        "results": results,
    }


def tail(lat: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    s = sorted(lat)
    rank = max(len(s) - 10, 1)  # 1-based
    return s[rank - 1], 100.0 * rank / len(s)


def kernel_us_per_perm(kernel, seed: int, batch: int = 20000, repeats: int = 3) -> float:
    rng = random.Random(seed)
    perms = [tuple(rng.sample(range(1, 10), 9)) for _ in range(batch)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for p in perms:
            kernel(p)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / batch * 1e6


def layer_metrics(tr, ops, traced: dict, seed: int) -> dict:
    from maxmintrees import weights

    def per_letter(name):
        letters = tr.letters.get(name, 0)
        return tr.total_s(name) / letters * 1e9 if letters else 0.0

    q9 = {}
    for op, c in zip(ops, traced["op_cpu"]):
        if "role" in op:
            spans = [s for s in tr.spans_named("eulerian.q_eulerian") if s[4] == op["id"]]
            q9[op["role"]] = (sum(s[2] - s[1] for s in spans), c)
    speedup = overhead_cpu = 0.0
    if len(q9) == 2:
        speedup = q9["q9_workers1"][0] / q9["q9_workers2"][0]
        overhead_cpu = q9["q9_workers2"][1] - q9["q9_workers1"][1]
    return {
        "cli.self_s": tr.self_s("cli.main"),
        "cli.output_bytes": sum(len(out.encode()) for _, out, _ in traced["results"]),
        "perms.parse_permutation.s": tr.total_s("perms.parse_permutation"),
        "perms.parse_ns_per_letter": per_letter("perms.parse_permutation"),
        "weights.weight_accelerated.s": tr.total_s("weights.weight_accelerated"),
        "weights.weight_accelerated.ns_per_letter": per_letter("weights.weight_accelerated"),
        "weights.weight_via_ranges.s": tr.total_s("weights.weight_via_ranges"),
        "weights.range_details.s": tr.total_s("weights.range_details"),
        "weights.kernel_us_per_perm": kernel_us_per_perm(weights.descents_and_weight, seed),
        "trees.build_max_weight_tree.s": tr.total_s("trees.build_max_weight_tree"),
        "trees.ns_per_letter": per_letter("trees.build_max_weight_tree"),
        "trees.decompose_blocks.calls": tr.counts.get("trees.decompose_blocks", 0),
        "mindecomp.build_min_decomp.s": tr.total_s("mindecomp.build_min_decomp"),
        "mindecomp.ns_per_letter": per_letter("mindecomp.build_min_decomp"),
        "eulerian.q_eulerian.self_s": tr.self_s("eulerian.q_eulerian"),
        "eulerian.q_eulerian.calls": len(tr.spans_named("eulerian.q_eulerian")),
        "eulerian.q_eulerian.cache_hits": tr.counts.get("eulerian.q_eulerian.cache_hits", 0),
        "eulerian.perms_enumerated": tr.perms_enumerated(),
        "eulerian.pool_speedup": speedup,
        "eulerian.pool_overhead_cpu_s": overhead_cpu,
        "eulerian.eulerian_polynomial.s": tr.total_s("eulerian.eulerian_polynomial"),
        "eulerian.wd_series.self_s": tr.self_s("eulerian.wd_series"),
        "eulerian.stabilization_values.self_s": tr.self_s("eulerian.stabilization_values"),
        "partitions.t_nk.s": tr.total_s("partitions.t_nk"),
        "partitions.t_nk.calls": len(tr.spans_named("partitions.t_nk")),
        "partitions.partitions_enumerated": tr.counts.get("partitions.enumerate_partitions", 0),
        "partitions.t_triangle.s": tr.total_s("partitions.t_triangle"),
        "partitions.t_nk_contributions.s": tr.total_s("partitions.t_nk_contributions"),
        "partitions.crosscheck_triangle.self_s": tr.self_s("partitions.crosscheck_triangle"),
        "bijection.enumerate_stems.s": tr.total_s("bijection.enumerate_stems"),
        "bijection.stems_enumerated": tr.counts.get("bijection.stems_enumerated", 0),
        "bijection.verify_stem_totals.s": tr.total_s("bijection.verify_stem_totals"),
        "bijection.bijection_report.self_s": tr.self_s("bijection.bijection_report"),
    }


def find_failures(ops, first, later, words, refs) -> tuple[list[dict], list[str]]:
    """
    (failures, output digests of the first pass).  Every op of the first
    pass is checked; later passes must repeat its outputs digest for digest.
    A nonzero exit, anything on stderr or a traceback is a failure too.
    """
    digests = [_digest(op, out) for op, (_, out, _) in zip(ops, first)]
    failures = []
    for op, (rc, out, err) in zip(ops, first):
        reason = f"exit {rc}: {err.strip()[-300:]}" if rc != 0 or err else checks.check_op(op, out, words, refs)
        if reason:
            failures.append({"op": op["id"], "argv": op["argv"], "reason": reason})
    for results in later:
        for op, d, (rc, out, err) in zip(ops, digests, results):
            if rc != 0 or err or _digest(op, out) != d:
                failures.append({"op": op["id"], "argv": op["argv"], "reason": "output differs from pass 1"})
    return failures, digests


def word_refs(words: dict) -> dict:
    """Reference weights per word: the own stack pass, plus leaves up to 1e5 letters."""
    from maxmintrees.mindecomp import build_min_decomp, weight_via_leaves

    refs = {}
    for wid, p in words.items():
        refs[wid] = [checks.own_weight(p)]
        if len(p) <= 100_000:
            refs[wid].append(weight_via_leaves(build_min_decomp(p)))
    return refs


def cmd_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from maxmintrees import cli, eulerian

    src = Path(cli.__file__).resolve().parents[1]
    if src != HERE.parent / "src":
        raise SystemExit(f"maxmintrees was imported from {src}, not from this checkout")
    ops, words = workloads.build(workload, seed)
    texts = {wid: " ".join(map(str, p)) for wid, p in words.items()}
    work = HERE / "out" / f"work-{os.getpid()}"
    files = {}
    if workload == "triangle":
        work.mkdir(parents=True, exist_ok=True)
        tri = [list(r) for r in checks.t_rows(50)]
        for name, text in workloads.triangle_files(tri).items():
            files[name] = str(work / f"triangle.{name}")
            Path(files[name]).write_text(text)
    argvs = [workloads.op_argv(op, texts, files) for op in ops]

    passes = []
    budget_start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, argvs, cli.main, eulerian.clear_cache))
        spent = time.perf_counter() - budget_start
        if trace or (
            len(passes) >= MIN_PASSES
            and spent + statistics.median(p["wall_s"] for p in passes) > seconds
        ):
            break
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(self_rss, child_rss) / 1024

    traced = tr = None
    if trace:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        try:
            traced = run_pass(ops, argvs, cli.main, eulerian.clear_cache, tr)
        finally:
            tr.uninstall()

    # checks, outside every timed region
    later = [p["results"] for p in passes[1:]] + ([traced["results"]] if traced else [])
    failures, digests = find_failures(ops, passes[0]["results"], later, words, word_refs(words))
    for path in files.values():
        Path(path).unlink()
    if files:
        work.rmdir()

    # timings in seconds at the reference speed (see speed.py); each op's median
    # over the passes filters short bursts, and sums and quantiles are taken
    # over those medians
    lat = [statistics.median(p["lat"][i] * p["speed"] for p in passes) for i in range(len(ops))]
    cpu = [statistics.median(p["op_cpu"][i] * p["speed"] for p in passes) for i in range(len(ops))]
    items = sum(op["items"] for op in ops)
    tail_ms, tail_pct = tail(lat)
    result = {
        "attempted": len(ops) * (len(passes) + (1 if trace else 0)),
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "wall_s": sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_ms * 1e3,
            "items_per_s": items / sum(lat),
            "cpu_s": sum(cpu),
            "peak_rss_mb": peak_rss_mb,
        },
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_speed_factors": [p["speed"] for p in passes],
        "tail_percentile": tail_pct,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "items_per_pass": items,
        "provenance": {
            "workload": workload,
            "seed": seed,
            "src": str(src),
            "ops": [{k: v for k, v in op.items() if k != "items"} for op in ops],
            "ops_digest": hashlib.sha256(
                json.dumps(ops_for_digest(ops, words), sort_keys=True).encode()
            ).hexdigest(),
            "op_latency_ms": [[p["lat"][i] * 1e3 for p in passes] for i in range(len(ops))],
            "output_digests": digests,
            "outputs_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        },
    }
    if trace:
        layers = tr.layer_span_counts()
        result["layer_spans"] = layers
        result["per_layer"] = layer_metrics(tr, ops, traced, seed)
        # the median op's slowdown, both passes at the reference speed: one pass
        # each is too few for whole-pass times on a machine whose speed drifts
        scale = traced["speed"] / passes[0]["speed"]
        ratios = [t * scale / u for t, u in zip(traced["lat"], passes[0]["lat"])]
        result["per_layer"]["trace.overhead"] = (statistics.median(ratios) - 1) * 100
        result["spans"] = tr.spans
        result["counts"] = tr.counts
    print(json.dumps(result))
    return 0


def ops_for_digest(ops: list[dict], words: dict) -> list[dict]:
    """Ops with each word replaced by its length and hash, for a compact digest."""
    out = []
    for op in ops:
        entry = dict(op)
        if "word" in op:
            p = words[op["word"]]
            entry["word"] = [len(p), hashlib.sha256(repr(p).encode()).hexdigest()]
        out.append(entry)
    return out


def cmd_setup(workload: str) -> int:
    t0 = time.perf_counter()
    from maxmintrees import cli

    t1 = time.perf_counter()
    rc, _, err = _call(cli.main, WARMUP[workload]())
    print(json.dumps({"import_s": t1 - t0, "warmup_s": time.perf_counter() - t1, "rc": rc}))
    return 0 if rc == 0 and not err else 1


def cmd_probe() -> int:
    t0 = time.perf_counter()
    from maxmintrees import cli, weights  # noqa: F401

    t1 = time.perf_counter()
    word = tuple(random.Random(0).sample(range(1, 2049), 2048))
    t2 = time.perf_counter()
    weights.weight_accelerated(word)
    t3 = time.perf_counter()
    weights.weight_accelerated(word)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "lazy_import_s": (t3 - t2) - (t4 - t3)}))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "run":
        return cmd_run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    if argv[0] == "setup":
        return cmd_setup(argv[1])
    if argv[0] == "probe":
        return cmd_probe()
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
