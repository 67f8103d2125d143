"""
Spans around the public functions of each maxmintrees module, from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in every ``maxmintrees`` namespace that binds it (``cli``,
``bijection`` and ``eulerian`` import functions by name, so patching only
the defining module would miss their calls).  A span records name, start,
end, parent span and op id; spans stay in memory until the run ends.

Functions called once per item (per segment, per permutation, per stem) get
a counter instead of a span, so that tracing does not swamp the work it
measures.  Generator functions count the items they yield.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing
import os
import sys
import time

LAYERS = ("cli", "perms", "weights", "trees", "mindecomp", "eulerian", "partitions", "bijection")

# called once per item; counted, not spanned
COUNT_ONLY = {
    "trees.decompose_blocks",
    "weights.descents_and_weight",
    "bijection.stem_count",
    "bijection.stem_to_partition",
}

# spans whose size (letters) feeds a ns-per-letter metric
SIZED = {
    "perms.parse_permutation": lambda args, result: len(result),
    "weights.weight_accelerated": lambda args, result: len(args[0]),
    "trees.build_max_weight_tree": lambda args, result: len(args[0]),
    "mindecomp.build_min_decomp": lambda args, result: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, int] = {}
        self.letters: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._q_seen: dict = {}
        self._main_pid = os.getpid()
        # permutations enumerated in forked pool workers, reported back per block
        self._worker_perms = multiprocessing.Value("q", 0)

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._q_seen = {}

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def perms_enumerated(self) -> int:
        return self.counts.get("eulerian.perms_enumerated", 0) + self._worker_perms.value

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        sized = SIZED.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if sized:
                self.letters[name] = self.letters.get(name, 0) + sized(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = 0
            try:
                for k, item in enumerate(fn(*args, **kwargs), 1):
                    yield item
            finally:
                self.count(name, k)

        return wrapper

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        wrapped = self._span(name, fn)
        if name == "eulerian.q_eulerian":
            return self._with_cache_hits(wrapped)
        if name == "bijection.enumerate_stems":
            return self._with_result_size(wrapped, "bijection.stems_enumerated")
        return wrapped

    def _with_cache_hits(self, fn):
        # a hit returns the very object an earlier call of this op returned
        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            result = fn(n, *args, **kwargs)
            if self._q_seen.get(n) is result:
                self.count("eulerian.q_eulerian.cache_hits")
            self._q_seen[n] = result
            return result

        return wrapper

    def _with_result_size(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(key, len(result))
            return result

        return wrapper

    def _block_reporter(self, fn):
        # runs in pool workers too (forked after install): add the block's
        # kernel calls to the shared total, since worker counters die with them
        @functools.wraps(fn)
        def wrapper(task):
            before = self.counts.get("eulerian.perms_enumerated", 0)
            result = fn(task)
            if os.getpid() != self._main_pid:
                done = self.counts.get("eulerian.perms_enumerated", 0) - before
                with self._worker_perms.get_lock():
                    self._worker_perms.value += done
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = {name: sys.modules[f"maxmintrees.{name}"] for name in LAYERS}
        namespaces = [sys.modules["maxmintrees"], *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._replace(namespaces, fn, self._wrap(f"{layer}.{attr}", fn))
        eulerian = modules["eulerian"]
        kernel = getattr(eulerian, "descents_and_weight", None)
        if kernel is not None:
            # the per-permutation kernel as eulerian calls it
            original = getattr(kernel, "__wrapped__", kernel)
            self._set(eulerian, "descents_and_weight", self._counter("eulerian.perms_enumerated", original))
        block = getattr(eulerian, "_block_counts", None)
        if block is not None:
            self._set(eulerian, "_block_counts", self._block_reporter(block))

    def _replace(self, namespaces, old, new) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is old:
                    self._set(ns, attr, new)

    def _set(self, ns, attr, value) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------ summaries

    def spans_named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans_named(name))

    def self_s(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def layer_span_counts(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            out[s[0].split(".", 1)[0]] += 1
        return out
