"""
The maxmintrees benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``words``, ``enumeration`` and ``triangle``, each a closed loop with one
client.  A fresh child process runs at least three whole passes over the
seeded op list, more while the next pass is expected to fit in
``--seconds``, then checks every output.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics of ``layers.json`` instead of the
end-to-end ones.

The last line of stdout is the result JSON; the full record (provenance, op
list, output digests, per-op latencies and, when tracing, the spans) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 5
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "absent"


class Children:
    """Runs worker.py children with ``src`` on PYTHONPATH, against one deadline."""

    def __init__(self, src: Path, start: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        self.env = env
        self.start = start

    def run(self, *args: str) -> tuple[dict, float]:
        """(last stdout line as JSON, wall seconds); raises BenchError on failure."""
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time before starting a child")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran past the deadline") from None
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1]), wall


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    src = ROOT / "src"
    if not (src / "maxmintrees" / "cli.py").is_file():
        print(f"error: no maxmintrees sources under {src}", file=sys.stderr)
        return 2
    layers = json.loads((HERE / "layers.json").read_text())
    children = Children(src, start)
    try:
        if args.trace:
            probes = [children.run("probe")[0] for _ in range(SETUP_REPEATS)]
            setup_walls, loops = [], []
        else:
            setups, loops = [], []
            for _ in range(SETUP_REPEATS):
                loops.append(speed.loop_s())
                setups.append(children.run("setup", args.workload))
            loops.append(speed.loop_s())
            probes = [s for s, _ in setups]
            setup_walls = [w for _, w in setups]
        res, _ = children.run("run", args.workload, str(args.seed), str(args.seconds), str(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = []  # failures that are not ops: a layer the workload must load stayed idle
    if args.trace:
        per_layer = res["per_layer"]
        per_layer["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        per_layer["weights.lazy_import_s"] = statistics.median(p["lazy_import_s"] for p in probes)
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]} for m in layers["metrics"]}
        need = layers["loads"][args.workload]
        for layer in need["spans"]:
            if not res["layer_spans"].get(layer):
                problems.append(f"layer {layer} recorded no spans")
        for counter in need["counters"]:
            if not per_layer.get(counter):
                problems.append(f"counter {counter} stayed at zero")
    else:
        e2e = dict(res["end_to_end"], setup_s=statistics.median(setup_walls) * speed.factor(loops))
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    record = {
        "metrics": metrics,
        "layer_problems": problems,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "platform": platform.platform(),
        },
        "commit": git_commit(ROOT),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_walls_s": setup_walls,
        "setup_loops_s": loops,
        "probes": probes,
        **{k: v for k, v in res.items() if k not in ("end_to_end", "per_layer")},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for f in res["failures"]:
        print(f"FAIL op {f['op']} {' '.join(f['argv'])}: {f['reason']}")
    for p in problems:
        print(f"FAIL {p}")
    print(
        f"{args.workload} seed={args.seed}: {res['passes']} pass(es) of {res['ops_per_pass']} ops, "
        f"tail at p{res['tail_percentile']:.1f}, outputs {res['provenance']['outputs_digest'][:16]}, "
        f"record in {out_file.relative_to(ROOT)}"
    )
    correct = res["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
