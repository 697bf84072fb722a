"""Serving-latency harness and a minimal adapter-registry service.

The bench replays a fixed question sequence against one of four serving
modes and reports a per-stage wall-clock breakdown from a closed stage
vocabulary. Preloaded mode reads every adapter file exactly once per
process; dynamic mode re-reads the routed files for every question, which
is the per-query I/O cost the comparison is about. Stage boundaries are
explicit monotonic-clock reads; there is no device queue at this scale, so
ordered clock reads are the whole synchronization story.

Retrieval stages map onto the router: query_embedding is the query-vector
encoding, index_search is the cosine top-k scan. Registry and index
construction from adapter headers is one-time setup outside the stage
vocabulary. The companion service speaks line-delimited JSON over a local
TCP socket; registration preloads, queries are concurrent and read-only.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import adapterio, memlab, router
from .adapterio import Adapter
from .fields import (_REQUIRED, _Field, _is_int, _is_number,
                     _is_number_list, _is_str, _parse)
from .matcore import Matrix
from .merge import (MergeError, MergeMethod, MergeSpec, WeightError,
                    check_weights)
from .multimem import TARGET_ID, compose
from .router import EmbeddingIndex, PolicyKind, RoutingPolicy

STAGE_NAMES = (
    "model_loading",
    "all_lora_loading",
    "lora_loading",
    "lora_merge",
    "lora_activation",
    "query_embedding",
    "index_search",
    "tokenization",
    "inference",
)


class Mode(str, Enum):
    BASE_ONLY = "base"
    SINGLE_ADAPTER = "single"
    PRELOADED = "preloaded"
    DYNAMIC = "dynamic"


class BenchError(RuntimeError):
    pass


class _Stages:
    """One call's stage times: `lap(name)` charges the time since the
    previous lap to `name`, in ms; `lap()` only restarts the clock."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self._t0 = time.perf_counter_ns()

    def lap(self, name: str | None = None) -> None:
        t1 = time.perf_counter_ns()
        if name is not None:
            self.ms[name] = (t1 - self._t0) / 1e6
        self._t0 = t1


@dataclass
class BenchScenario:
    """One serving experiment: a question stream over on-disk adapters."""

    mode: Mode
    dataset: memlab.KvDataset
    adapter_paths: list[Path] = field(default_factory=list)
    single_adapter_path: Path | None = None
    question_count: int = 30
    top_n: int = 3
    merge_spec: MergeSpec = field(
        default_factory=lambda: MergeSpec(method=MergeMethod.TIES))
    base_seed: int = 0
    d_in: int = memlab.D_IN_DEFAULT

    def __post_init__(self):
        if self.question_count < 1:
            raise BenchError(
                f"question_count must be >= 1, got {self.question_count}")


@dataclass
class TimingReport:
    mode: Mode
    stages: list[tuple[str, float]]            # one-time stages, in order
    per_query: list[dict[str, float]]          # per-question stage maps
    totals: dict[str, float]                   # one-time + summed per-query
    read_counts: dict[str, int]                # adapter file -> disk reads
    em: float
    question_count: int

    def to_json(self) -> dict:
        return {**asdict(self), "mode": self.mode.value}


def _totals(stages, per_query) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, ms in itertools.chain(stages, *(q.items() for q in per_query)):
        totals[name] = totals.get(name, 0.0) + ms
    return totals


def _count_read(counts: dict[str, int], path) -> None:
    counts[str(path)] = counts.get(str(path), 0) + 1


def _load_adapter(path, counts) -> Adapter:
    _count_read(counts, path)
    return adapterio.load(path)


def _centroid_index(entries) -> EmbeddingIndex:
    """Cosine index over (adapter name, metadata) pairs: one row per pair,
    in entry order, from the key centroid its metadata carries."""
    shards = []
    for name, metadata in entries:
        raw = metadata.get("centroid", "")
        if not raw:
            raise BenchError(f"adapter {name!r} has no centroid metadata")
        centroid = np.asarray(json.loads(raw), dtype=np.float64)
        shards.append((name, Matrix(centroid.reshape(1, -1))))
    return router.build_index(shards)


def _questions(scenario: BenchScenario) -> list[int]:
    n = len(scenario.dataset)
    if n == 0:
        raise BenchError("scenario dataset is empty")
    return [i % n for i in range(scenario.question_count)]


def _query(stages: _Stages, index: EmbeddingIndex, vec: np.ndarray,
           top_n: int, select, spec: MergeSpec, w0: np.ndarray,
           modules: list[str] | None = None):
    """The read path: route `vec` to its cosine top-`top_n` modules (or take
    `modules` at score 1), compose what `select(ids, stages)` returns and
    add it to `w0`. Returns the ranked route and the weight."""
    if modules is None:
        policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K,
                               k=min(top_n, len(index)))
        ranked = router.route(index, vec, policy)
    else:
        ranked = [(mid, 1.0) for mid in modules]
    stages.lap("index_search")
    delta = compose(select([mid for mid, _ in ranked], stages), spec)
    stages.lap("lora_merge")
    weight = np.add(w0, delta, out=delta)
    stages.lap("lora_activation")
    return ranked, weight


def run_bench(scenario: BenchScenario) -> TimingReport:
    """Execute the scenario and measure every stage with explicit
    before/after clock reads. The report's structure is deterministic for a
    given scenario; only the measured times vary."""
    ds = scenario.dataset
    questions = _questions(scenario)
    read_counts: dict[str, int] = {}
    per_query: list[dict[str, float]] = []

    setup = _Stages()
    w0 = memlab.frozen_base(scenario.base_seed, scenario.d_in).data
    setup.lap("model_loading")

    mode = scenario.mode
    index = None
    weight = w0

    if mode in (Mode.PRELOADED, Mode.DYNAMIC) and not scenario.adapter_paths:
        raise BenchError(f"{mode.value} mode needs adapter_paths")
    if mode == Mode.SINGLE_ADAPTER:
        if scenario.single_adapter_path is None:
            raise BenchError("single mode needs single_adapter_path")
        adapter = _load_adapter(scenario.single_adapter_path, read_counts)
        setup.lap("lora_loading")
        delta = compose([adapter], scenario.merge_spec)
        weight = np.add(w0, delta, out=delta)
        setup.lap("lora_activation")
    elif mode == Mode.PRELOADED:
        loaded = [_load_adapter(p, read_counts) for p in scenario.adapter_paths]
        setup.lap("all_lora_loading")
        preloaded = {ad.name: ad for ad in loaded}
        index = _centroid_index((ad.name, ad.metadata) for ad in loaded)

        def select(chosen, stages):
            return [preloaded[mid] for mid in chosen]
    elif mode == Mode.DYNAMIC:
        headers = []
        paths_by_name: dict[str, Path] = {}
        for path in scenario.adapter_paths:
            _count_read(read_counts, path)
            header = adapterio.inspect_header(path)
            headers.append((header["name"], header["metadata"]))
            paths_by_name[header["name"]] = Path(path)
        index = _centroid_index(headers)

        def select(chosen, stages):
            selected = [_load_adapter(paths_by_name[mid], read_counts)
                        for mid in chosen]
            stages.lap("lora_loading")
            return selected

    hits = 0
    for rec_idx in questions:
        record = ds.records[rec_idx]
        q = _Stages()
        if index is not None:
            key = memlab.encode_key(record.name, scenario.d_in)
            q.lap("query_embedding")
            _, weight = _query(q, index, key, scenario.top_n, select,
                               scenario.merge_spec, w0)

        question_text = (f"Question: What is the phone number of "
                         f"{record.name}? Answer:")
        _ = question_text.split()
        if index is None:
            # Closed-book modes: turning the prompt into the model input
            # (split + key encoding) is all tokenization-side work here.
            key = memlab.encode_key(record.name, scenario.d_in)
        q.lap("tokenization")

        correct = bool(memlab.exact_match(weight @ key, ds.labels[rec_idx]))
        q.lap("inference")
        hits += correct
        per_query.append(q.ms)

    return TimingReport(
        mode=mode,
        stages=list(setup.ms.items()),
        per_query=per_query,
        totals=_totals(setup.ms.items(), per_query),
        read_counts=read_counts,
        em=hits / len(questions),
        question_count=len(questions),
    )


# --- registry service -------------------------------------------------------


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0
    adapter_dir: Path | None = None


@dataclass
class _RegistryState:
    adapters: dict[str, Adapter]
    index: EmbeddingIndex | None
    w0: np.ndarray | None
    d_in: int | None
    seed: int | None


class DuplicateAdapterError(BenchError):
    """A register named an adapter the registry already holds."""


def _check_geometry(adapter: Adapter, d_in: int, row: np.ndarray) -> None:
    """Reject an adapter that no query could use: it needs a `memory`
    target shaped (D_OUT, d_in) and a centroid of length d_in."""
    pair = adapter.targets.get(TARGET_ID)
    if pair is None:
        raise BenchError(f"adapter {adapter.name!r} has no {TARGET_ID!r} "
                         f"target")
    if (pair.d_out, pair.d_in) != (memlab.D_OUT, d_in):
        raise BenchError(
            f"adapter {adapter.name!r} target {TARGET_ID!r} is "
            f"{pair.d_out}x{pair.d_in}, expected {memlab.D_OUT}x{d_in}")
    if row.shape[1] != d_in:
        raise BenchError(f"adapter {adapter.name!r} centroid has length "
                         f"{row.shape[1]}, expected d_in={d_in}")


class AdapterRegistry:
    """Preloading registry: register swaps an immutable snapshot under a
    lock; queries read the current snapshot without locking.

    A register decodes only the new adapter's centroid, outside the lock,
    and the next snapshot's index is the previous one with that row
    inserted, so its cost does not grow with the number of adapters beyond
    one copy of the index rows. Rows stay in sorted-name order: BLAS may
    sum a row's cosine differently at another position, so the order
    decides the last bits of every score.
    """

    def __init__(self):
        self._write_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._state = _RegistryState({}, None, None, None, None)
        self._queries_served = 0

    def register(self, path) -> int:
        adapter = adapterio.load(path)
        seed = int(adapter.metadata.get("seed", "0"))
        d_in = int(adapter.metadata.get("d_in", str(memlab.D_IN_DEFAULT)))
        row = _centroid_index([(adapter.name, adapter.metadata)]).vectors.data
        _check_geometry(adapter, d_in, row)
        with self._write_lock:
            state = self._state
            if adapter.name in state.adapters:
                raise DuplicateAdapterError(
                    f"adapter {adapter.name!r} is already registered")
            if state.d_in is not None and (d_in != state.d_in
                                           or seed != state.seed):
                raise BenchError(
                    f"adapter {adapter.name!r} geometry (seed={seed}, "
                    f"d_in={d_in}) disagrees with registry "
                    f"(seed={state.seed}, d_in={state.d_in})"
                )
            w0 = state.w0 if state.w0 is not None else \
                memlab.frozen_base(seed, d_in).data
            ids, rows = ((), row[:0]) if state.index is None else \
                (state.index.ids, state.index.vectors.data)
            at = bisect.bisect(ids, adapter.name)
            index = EmbeddingIndex(
                ids=ids[:at] + (adapter.name,) + ids[at:],
                vectors=Matrix(np.vstack([rows[:at], row, rows[at:]])))
            adapters = {**state.adapters, adapter.name: adapter}
            self._state = _RegistryState(adapters, index, w0, d_in, seed)
            return len(adapters)

    def snapshot(self) -> _RegistryState:
        return self._state

    def query(self, vector, top_n=None, merge=None, modules=None) -> dict:
        """Each argument meets its request field's rule, None standing for
        an absent field. `_dispatch` passes what `_parse` returned, whose
        merge is a `_ParsedMerge`, so it is not parsed twice."""
        if not isinstance(merge, _ParsedMerge):
            given = zip(_OP_FIELDS["query"], (vector, top_n, merge, modules))
            vector, top_n, merge, modules = _parse(
                {name: value for name, value in given if value is not None},
                _OP_FIELDS["query"], "request", BadRequest).values()
        state = self.snapshot()
        if not state.adapters:
            raise BenchError("no adapters registered")
        if not np.isfinite(vector).all():
            raise BenchError("query vector has NaN or Inf entries")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(vector)):
                raise BenchError("query vector norm overflows float64")
        if vector.size != state.d_in:
            raise BenchError(
                f"query dimension {vector.size} != registry d_in {state.d_in}")
        unknown = [m for m in modules or () if m not in state.adapters]
        if unknown:
            raise BenchError(f"unknown adapter id(s): {unknown}")
        if merge.weights is not None:
            # weights that no merge would read are refused, not ignored
            if merge.method == MergeMethod.CAT:
                raise WeightError("weights do not apply to cat")
            check_weights(merge.weights, len(modules) if modules
                          else min(top_n, len(state.adapters)))
        stages = _Stages()
        ranked, weight = _query(
            stages, state.index, vector, top_n,
            lambda chosen, _: [state.adapters[m] for m in chosen], merge,
            state.w0, modules)
        with np.errstate(over="ignore", invalid="ignore"):
            logits = weight @ vector
        if not np.isfinite(logits).all():
            raise BenchError("query logits are not finite")
        digest = hashlib.sha256(
            np.ascontiguousarray(logits).astype("<f8").tobytes()).hexdigest()
        stages.lap("inference")
        with self._counter_lock:
            self._queries_served += 1
        return {
            "route": [[mid, score] for mid, score in ranked],
            "em_logits_digest": digest,
            "stage_times": stages.ms,
        }

    def stats(self) -> dict:
        state = self.snapshot()
        with self._counter_lock:
            served = self._queries_served
        return {
            "adapters": len(state.adapters),
            "queries_served": served,
            "d_in": state.d_in,
        }


class BadRequest(BenchError):
    """A request that breaks a rule of its fields' table; the reply code is
    `bad_request`."""


def _is_top_n(value) -> bool:
    return _is_int(value) and value >= 1


def _is_module_list(value) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(isinstance(m, str) for m in value)
            and len(set(value)) == len(value))


class _ParsedMerge(MergeSpec):
    """A merge object as `_parse` reads it; marks a parsed query."""


def _is_method(value) -> bool:
    return _is_str(value) and value in {m.value for m in MergeMethod}


def _merge_spec(blob: dict | None) -> MergeSpec:
    try:
        return _ParsedMerge(
            **_parse(blob or {}, _MERGE_FIELDS, "merge", BadRequest))
    except MergeError as exc:       # a density or drop_rate out of range
        raise BadRequest(str(exc)) from exc


_MERGE_FIELDS = {
    "weights": _Field(None, _is_number_list, "a list of numbers",
                      lambda w: tuple(map(float, w))),
    "method": _Field(MergeMethod.TIES, _is_method, "one of " + ", ".join(
        m.value for m in MergeMethod), MergeMethod),
    "density": _Field(1.0, _is_number, "a number", float),
    "drop_rate": _Field(0.0, _is_number, "a number", float),
    "seed": _Field(0, _is_int, "an integer"),
}
# The fields of each op besides `op`; `query` takes them in this order.
_OP_FIELDS = {
    # open() takes an integer as a file descriptor
    "register": {"path": _Field(_REQUIRED, _is_str, "a string")},
    "query": {
        "vector": _Field(_REQUIRED, _is_number_list, "a 1-D list of numbers",
                         lambda v: np.asarray(v, dtype=np.float64)),
        "top_n": _Field(1, _is_top_n, "an integer >= 1"),
        "merge": _Field(_merge_spec(None),
                        lambda v: v is None or isinstance(v, dict),
                        "a JSON object", _merge_spec),
        "modules": _Field(None, _is_module_list,
                          "a non-empty list of distinct strings",
                          excludes="top_n"),
    },
    "stats": {},
}


# Longest request line the server reads, newline included; a query of 256
# floats takes about 6 KB.
MAX_REQUEST_LINE = 1 << 20


def _error(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        registry: AdapterRegistry = self.server.registry
        while raw := self.rfile.readline(MAX_REQUEST_LINE):
            if len(raw) == MAX_REQUEST_LINE and not raw.endswith(b"\n"):
                reply = self._discard_line()
            else:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                reply = self._dispatch(registry, line)
            self.wfile.write((json.dumps(reply) + "\n").encode("utf-8"))
            self.wfile.flush()

    def _discard_line(self) -> dict:
        """Skip the rest of an over-long line; one error answers it."""
        while (chunk := self.rfile.readline(MAX_REQUEST_LINE)) \
                and not chunk.endswith(b"\n"):
            pass
        return _error("line_too_long",
                      f"request line exceeds {MAX_REQUEST_LINE} bytes")

    @staticmethod
    def _dispatch(registry: AdapterRegistry, line: str) -> dict:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error("bad_json", str(exc))
        try:
            if not isinstance(request, dict):
                raise BadRequest("request must be a JSON object")
            op = request.pop("op", None)
            if not isinstance(op, str) or op not in _OP_FIELDS:
                return _error("unknown_op", f"unknown op {op!r}")
            result = getattr(registry, op)(
                **_parse(request, _OP_FIELDS[op], "request", BadRequest))
            # register answers with the adapter count
            return {"ok": True,
                    **({"adapters": result} if op == "register" else result)}
        except (BadRequest, WeightError) as exc:
            # WeightError: merge weights that do not fit the route
            return _error("bad_request", str(exc))
        except (KeyError, TypeError, ValueError, OSError,
                BenchError, adapterio.FormatError) as exc:
            return _error(type(exc).__name__, str(exc))


class RegistryServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, config: ServeConfig):
        super().__init__((config.host, config.port), _Handler)
        self.registry = AdapterRegistry()
        if config.adapter_dir is not None:
            for path in sorted(Path(config.adapter_dir).glob("*.lmem")):
                self.registry.register(path)

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_in_thread(config: ServeConfig) -> tuple[RegistryServer, threading.Thread]:
    """Start a registry server on a background thread (tests). It polls
    for shutdown every 50 ms, so `shutdown()` returns within that."""
    server = RegistryServer(config)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


def request_line(host: str, port: int, payload: dict,
                 timeout: float = 10.0) -> dict:
    """One-shot client helper: send one JSON line, read one JSON line."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        with conn.makefile("r", encoding="utf-8") as fh:
            return json.loads(fh.readline())
