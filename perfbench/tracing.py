"""Spans around the program's public functions, installed from outside.

`install()` replaces module attributes (and a few class methods) of the
loramem package with wrappers that record a span per call: name, start,
end, parent span, request id and a few attributes. Calls that happen
hundreds of thousands of times per run (the Rng draws and Matrix
construction) are summed into counters, per request, instead of spans.
Spans stay in memory and are written out as JSON lines by `Tracer.dump`;
`aggregate` turns one or more span files into per-layer numbers.

Nothing under src/ changes: the wrappers replace attributes that callers
look up at call time (`memlab.train`, `merge_mod.merge`, ...), and the
class-level patches reach every instance.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        # One counter dict per thread, so counting takes no lock; each maps
        # the request id open on the thread (0 outside any span) to its
        # counters, so counts can be left out with their request.
        self._thread_counters: list[dict[int, dict[str, float]]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counters(self) -> dict[str, float]:
        """The calling thread's counters for its open request."""
        mine = getattr(self._local, "counters", None)
        if mine is None:
            mine = self._local.counters = defaultdict(
                lambda: defaultdict(float))
            self._thread_counters.append(mine)
        stack = self._stack()
        return mine[stack[-1][1] if stack else 0]

    def wrap(self, name: str, fn, root: bool = False, attrs=None):
        """Span around every call of fn. A root span starts a new request id;
        other spans inherit the id of the span that is open on their thread."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent, request = stack[-1] if stack else (0, 0)
            if root or not request:
                request = next(self._requests)
            span_id = next(self._ids)
            stack.append((span_id, request))
            extra = attrs(*args, **kwargs) if attrs is not None else None
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, name, t0, t1, request,
                                   extra))
        return wrapper

    def count(self, family: str, fn, values=None):
        """Counter-only wrapper: the summed time of the outermost calls in
        this counter family, and an optional value count per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, family, 0)
            setattr(self._local, family, depth + 1)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                setattr(self._local, family, depth)
                counters = self.counters()
                if depth == 0:
                    counters[family + ".ns"] += dt
                if values is not None:
                    counters[family + ".values"] += values(*args)
        return wrapper

    def dump(self, path) -> None:
        totals: dict = defaultdict(lambda: defaultdict(float))
        for counters in self._thread_counters:
            for request, values in list(counters.items()):
                for key, value in values.items():
                    totals[request][key] += value
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": totals}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _spec_attrs(adapters, spec):
    return {"method": spec.method.value,
            "key": [sorted(a.name for a in adapters),
                    [spec.method.value, spec.weights, spec.density,
                     spec.drop_rate, spec.seed]]}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the public functions of every loramem module. Returns what
    `uninstall` needs to put the originals back."""
    from loramem import (adapterio, analysis, cli, matcore, memlab, merge,
                         multimem, router, servebench)

    saved = []

    def replace(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch(module, attr, root=False, attrs=None, name=None):
        name = name or f"{module.__name__.split('.')[-1]}.{attr}"
        replace(module, attr, tracer.wrap(name, getattr(module, attr),
                                          root=root, attrs=attrs))

    # matcore: counters only; these run per training step.
    rng = matcore.Rng
    replace(rng, "uint64", tracer.count("matcore.rng", rng.uint64,
                                        values=lambda self, n: int(n)))
    for meth in ("uniform", "gaussian", "integers", "bernoulli",
                 "permutation", "derive"):
        replace(rng, meth, tracer.count("matcore.rng", getattr(rng, meth)))
    post_init = matcore.Matrix.__post_init__

    def counted_post_init(self):
        post_init(self)
        counters = tracer.counters()
        counters["matcore.matrix.count"] += 1
        counters["matcore.matrix.bytes"] += self.data.nbytes
    replace(matcore.Matrix, "__post_init__", counted_post_init)
    patch(matcore, "matmul")

    patch(adapterio, "delta")
    patch(adapterio, "load",
          attrs=lambda path: {"bytes": os.path.getsize(path)})
    patch(merge, "merge", attrs=_spec_attrs)
    patch(memlab, "train",
          attrs=lambda dataset, config: {"steps": config.steps})
    for attr in ("evaluate", "make_dataset"):
        patch(memlab, attr)
    patch(analysis, "run_sweep")
    for attr in ("route", "build_index"):
        patch(router, attr)
    for attr in ("train_shards", "eval_system", "interference_sweep"):
        patch(multimem, attr)
    patch(servebench, "run_bench",
          attrs=lambda scenario: {"mode": scenario.mode.value})
    patch(servebench.AdapterRegistry, "query", root=True,
          name="servebench.query")
    patch(servebench.AdapterRegistry, "register", root=True,
          name="servebench.register")
    patch(cli, "main", root=True)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# --- aggregation -------------------------------------------------------------


def read_spans(paths, skip=None) -> tuple[list[dict], dict[str, float]]:
    """Spans from each file, with ids made unique across files.

    skip[n] lists (start, end) intervals, in perf_counter_ns, of file n:
    requests whose top-level span starts inside one are left out. On Linux
    perf_counter_ns reads CLOCK_MONOTONIC, one clock for every process on
    the host, so the intervals can be taken in another process."""
    spans, counters = [], defaultdict(float)
    for n, path in enumerate(paths):
        intervals = skip[n] if skip is not None else []
        with open(path, encoding="utf-8") as fh:
            head = json.loads(fh.readline())
            rows = [json.loads(line) for line in fh]
        dropped = {req for _, parent, _, t0, _, req, _ in rows
                   if not parent and any(a <= t0 <= b for a, b in intervals)}
        for req, values in head["counters"].items():
            if int(req) not in dropped:
                for key, value in values.items():
                    counters[key] += value
        for sid, parent, name, t0, t1, req, extra in rows:
            if req in dropped:
                continue
            spans.append({"id": (n, sid), "parent": (n, parent) if parent
                          else None, "name": name, "t0": t0, "t1": t1,
                          "request": (n, req), "attrs": extra or {}})
    return spans, counters


def self_ms(span: dict, children: list[dict]) -> float:
    """Duration minus the part of it that child spans cover."""
    covered, cursor = 0, span["t0"]
    for child in sorted(children, key=lambda c: c["t0"]):
        start, end = max(child["t0"], cursor), min(child["t1"], span["t1"])
        if end > start:
            covered += end - start
            cursor = end
    return (span["t1"] - span["t0"] - covered) / 1e6


def aggregate(spans: list[dict], counters: dict[str, float]) -> dict:
    """Per-layer totals from spans and counters (times in ms)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def ancestors(s):
        while s["parent"] is not None and s["parent"] in by_id:
            s = by_id[s["parent"]]
            yield s

    total_ms = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total_ms[s["name"]] += (s["t1"] - s["t0"]) / 1e6
        calls[s["name"]] += 1

    out: dict[str, float] = {
        "matcore.rng.values": counters.get("matcore.rng.values", 0.0),
        "matcore.rng.ms": counters.get("matcore.rng.ns", 0.0) / 1e6,
        "matcore.matrix.count": counters.get("matcore.matrix.count", 0.0),
        "matcore.matrix.bytes": counters.get("matcore.matrix.bytes", 0.0),
        "matcore.matmul.ms": total_ms["matcore.matmul"],
        "adapterio.delta.count": calls["adapterio.delta"],
        "adapterio.delta.ms": total_ms["adapterio.delta"],
        "adapterio.load.count": calls["adapterio.load"],
        "adapterio.load.ms": total_ms["adapterio.load"],
        "adapterio.load.bytes": sum(s["attrs"].get("bytes", 0) for s in spans
                                    if s["name"] == "adapterio.load"),
    }

    merges = [s for s in spans if s["name"] == "merge.merge"]
    # A result cache lives in one process, so a merge counts as a repeat
    # only when its key already occurred in the same span file; over all
    # files this is the merge-weighted mean of the per-process shares.
    seen, repeats = set(), 0
    for s in sorted(merges, key=lambda s: s["t0"]):
        key = (s["id"][0], json.dumps(s["attrs"]["key"]))
        repeats += key in seen
        seen.add(key)
    out["merge.count"] = len(merges)
    out["merge.ms"] = sum((s["t1"] - s["t0"]) / 1e6 for s in merges)
    out["merge.repeat_share"] = repeats / len(merges) if merges else 0.0
    for method in ("ties", "dare-ties", "linear", "cat"):
        mine = [s for s in merges if s["attrs"]["method"] == method]
        out[f"merge.{method}.count"] = len(mine)
        out[f"merge.{method}.ms"] = sum((s["t1"] - s["t0"]) / 1e6
                                        for s in mine)

    out["memlab.train.count"] = calls["memlab.train"]
    out["memlab.train.ms"] = total_ms["memlab.train"]
    steps = sum(s["attrs"]["steps"] for s in spans
                if s["name"] == "memlab.train")
    out["memlab.train.steps_per_s"] = (
        steps / (total_ms["memlab.train"] / 1e3)
        if total_ms["memlab.train"] else 0.0)
    out["memlab.evaluate.ms"] = total_ms["memlab.evaluate"]
    out["memlab.make_dataset.ms"] = total_ms["memlab.make_dataset"]
    out["analysis.run_sweep.self_ms"] = sum(
        self_ms(s, children[s["id"]]) for s in spans
        if s["name"] == "analysis.run_sweep")
    out["router.route.count"] = calls["router.route"]
    out["router.route.ms"] = total_ms["router.route"]
    out["router.build_index.ms"] = total_ms["router.build_index"]
    for attr in ("train_shards", "eval_system", "interference_sweep"):
        out[f"multimem.{attr}.ms"] = total_ms[f"multimem.{attr}"]

    queries = merges_in_eval = 0
    for s in spans:
        if s["name"] in ("router.route", "merge.merge") and any(
                a["name"] == "multimem.eval_system" for a in ancestors(s)):
            if s["name"] == "router.route":
                queries += 1
            else:
                merges_in_eval += 1
    out["multimem.merges_per_query"] = merges_in_eval / queries if queries \
        else 0.0

    out["servebench.query.count"] = calls["servebench.query"]
    out["servebench.query.ms"] = total_ms["servebench.query"]
    out["servebench.register.count"] = calls["servebench.register"]
    out["servebench.register.ms"] = total_ms["servebench.register"]
    for mode in ("preloaded", "dynamic"):
        out[f"servebench.run_bench.{mode}.ms"] = sum(
            (s["t1"] - s["t0"]) / 1e6 for s in spans
            if s["name"] == "servebench.run_bench"
            and s["attrs"].get("mode") == mode)
    return out
