"""The serve_hot and serve_churn workloads: a registry server in its own
process under an open-loop load, at a nominal rate and on a rate ladder.

Set-up trains the adapters through the CLI (`lab gen`, then `multi run
--save-adapters`), once for the adapters the server preloads and once per
chunk of a pool of never-seen adapters that register calls add. Each round of the run launches a fresh server, so every round starts
from the same registry and each launch gives a set-up time sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from . import common, reference, tracing
from .common import percentile
from .loadgen import poisson_offsets, run_open_loop

# Queries sent closed-loop after each launch and before timing starts, so
# first-touch costs in a fresh process are not charged to the first arrivals.
WARMUP_QUERIES = 12
# A send later than this at p99 means the generator, not the server, set the
# pace; the run is then invalid.
MAX_LATE_P99_MS = 20.0
# Rounds per run; each has a repeat of set-up training, a nominal window and
# a ladder probe, so every metric samples the whole run.
ROUNDS = 5
RANK = 8
DENSITY = 0.3
DROP_RATE = 0.3
# The rate ladder: rung k is LADDER_BASE_QPS * LADDER_STEP**k. Five probes
# of a binary search resolve all 31 rungs (100 to 432 q/s).
LADDER_BASE_QPS = 100.0
LADDER_STEP = 1.05
LADDER_RUNGS = 31
# max_rate_qps: the p99 a ladder rung must stay within.
LATENCY_LIMIT_MS = 100.0
# Pause before each closed-loop register. Back to back, a round's registers
# would take about 0.15 s and sample the host's speed at one instant; paced,
# they span about a second.
REGISTER_GAP_S = 0.03


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    preload_shards: int      # adapters the server starts with
    preload_steps: int       # training steps per preloaded adapter
    budget: int              # token budget of the set-up phonebook
    key_queries: bool        # query with phonebook keys, else random vectors
    pool_shards: int         # never-seen adapters for register calls
    nominal_qps: float       # rate of the latency windows
    register_share: float    # share of open-loop ops that are registers
    register_batch: int      # closed-loop registers after each window


HOT = ServeWorkload(
    name="serve_hot", preload_shards=8, preload_steps=500, budget=700,
    key_queries=True, pool_shards=32, nominal_qps=40.0,
    register_share=0.0, register_batch=32)

CHURN = ServeWorkload(
    name="serve_churn", preload_shards=64, preload_steps=75, budget=1800,
    key_queries=False, pool_shards=64, nominal_qps=35.0,
    register_share=0.08, register_batch=0)


@dataclass
class Op:
    kind: str                # "query" or "register"
    line: bytes
    request: dict
    vector: np.ndarray | None = None


# --- set-up ------------------------------------------------------------------


def _cli(argv: list[str]) -> None:
    code, _ = common.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"loramem {' '.join(argv)} exited {code}")


def _train_adapters(work: Path, tag: str, seed: int, shards: int,
                    budget: int, steps: int,
                    train_seed: int) -> tuple[Path, float]:
    """`lab gen` then `multi run --save-adapters`; returns the adapter
    directory and the multi run's wall time."""
    pb = work / f"{tag}.txt"
    out = work / tag
    _cli(["lab", "gen", "--pairs", str(budget // 12 + 20), "--seed",
          str(seed), "--budget", str(budget), "--out", str(pb)])
    t0 = time.perf_counter()
    _cli(["multi", "run", "--data", str(pb), "--shards", str(shards),
          "--rank", str(RANK), "--steps", str(steps), "--seed",
          str(train_seed), "--report", str(work / f"{tag}.json"),
          "--save-adapters", str(out)])
    return out, time.perf_counter() - t0


def _preload(wl: ServeWorkload, seed: int, work: Path,
             rep: int) -> tuple[Path, float]:
    return _train_adapters(work, f"preload{rep}", seed, wl.preload_shards,
                           wl.budget, wl.preload_steps, seed % 1000 + 7)


def _pool_chunks(wl: ServeWorkload) -> int:
    """The pool is trained in chunks of as many shards as the preloaded
    set, each a `multi run` on a phonebook of its own with a share of the
    budget, so the shards are as large as the preloaded ones."""
    return wl.pool_shards // wl.preload_shards


def _pool_chunk(wl: ServeWorkload, seed: int, work: Path, chunk: int,
                rep: int) -> tuple[Path, float]:
    return _train_adapters(work, f"pool{chunk}_{rep}",
                           seed + 1_000_003 + chunk, wl.preload_shards,
                           wl.budget // _pool_chunks(wl), wl.preload_steps,
                           seed % 1000 + 7)


def prepare(wl: ServeWorkload, seed: int, work: Path) -> dict:
    """Train the preloaded set and the register pool. The pool's adapters
    per second give the first sweep_cells_per_s sample."""
    from loramem import adapterio, memlab

    preload, wall = _preload(wl, seed, work, 0)
    pool = work / "pool"
    pool.mkdir()
    pool_wall, n = 0.0, 0
    for chunk in range(_pool_chunks(wl)):
        raw, chunk_wall = _pool_chunk(wl, seed, work, chunk, 0)
        pool_wall += chunk_wall
        for path in sorted(raw.glob("*.lmem")):
            ad = adapterio.load(path)
            adapterio.save(adapterio.Adapter(name=f"pool_{n:03d}",
                                             targets=ad.targets,
                                             metadata=ad.metadata),
                           pool / f"pool_{n:03d}.lmem")
            n += 1
    keys = memlab.load_dataset(work / "preload0.txt").keys.data
    return {"preload": preload, "pool": sorted(pool.glob("*.lmem")),
            "keys": keys, "multi_walls": [wall],
            "pool_rates": [wl.pool_shards / pool_wall]}


def _same_adapters(first: Path, again: Path) -> None:
    if [p.read_bytes() for p in sorted(first.glob("*.lmem"))] != \
            [p.read_bytes() for p in sorted(again.glob("*.lmem"))]:
        raise RuntimeError("a repeated multi run saved different adapters")


def repeat_training(wl: ServeWorkload, seed: int, work: Path, rep: int,
                    assets: dict) -> None:
    """Train the preloaded set and one pool chunk again, for a multi_s and
    a sweep_cells_per_s sample; both must come out byte-identical."""
    again, wall = _preload(wl, seed, work, rep)
    _same_adapters(assets["preload"], again)
    assets["multi_walls"].append(wall)
    chunk = (rep - 1) % _pool_chunks(wl)
    again, wall = _pool_chunk(wl, seed, work, chunk, rep)
    _same_adapters(work / f"pool{chunk}_0", again)
    assets["pool_rates"].append(wl.preload_shards / wall)


# --- operations --------------------------------------------------------------


def _query(vector: np.ndarray, top_n: int, merge: dict | None) -> Op:
    request = {"op": "query", "vector": vector.tolist(), "top_n": top_n}
    if merge is not None:
        request["merge"] = merge
    return Op("query", (json.dumps(request) + "\n").encode(), request, vector)


def make_ops(wl: ServeWorkload, rng: np.random.Generator, n: int,
             assets: dict, pool_cursor: list[int]) -> list[Op]:
    """n operations of the workload's mix, drawn from rng."""
    ops = []
    keys = assets["keys"]
    for _ in range(n):
        if wl.register_share and rng.random() < wl.register_share \
                and pool_cursor[0] < len(assets["pool"]):
            path = assets["pool"][pool_cursor[0]]
            pool_cursor[0] += 1
            request = {"op": "register", "path": str(path)}
            ops.append(Op("register",
                          (json.dumps(request) + "\n").encode(), request))
            continue
        if wl.key_queries:
            vector = keys[int(rng.integers(len(keys)))]
            # 40% top-1 and 60% top-3: an even split would put the median on
            # the gap between the two latency populations.
            if rng.random() < 0.4:
                ops.append(_query(vector, 1, None))
            else:
                ops.append(_query(vector, 3, {"method": "ties",
                                              "density": DENSITY}))
        else:
            vector = rng.standard_normal(keys.shape[1])
            vector /= np.linalg.norm(vector)
            # Sign-electing merges dominate the mix (80% of merges, 60% of
            # queries), so the median lies inside the slow population
            # rather than on the gap between the two.
            method = ("ties", "dare-ties", "linear", "cat")[
                int(rng.choice(4, p=[0.4, 0.4, 0.1, 0.1]))]
            blob = {"method": method}
            if method in ("ties", "dare-ties"):
                blob["density"] = DENSITY
            if method == "dare-ties":
                blob["drop_rate"] = DROP_RATE
            ops.append(_query(vector, int(rng.integers(1, 5)), blob))
    return ops


# --- one timed phase ---------------------------------------------------------


@dataclass
class Phase:
    rate: float
    ops: list[Op]
    latency_ms: list[float | None]
    replies: list[dict | None]
    late_ms: list[float]
    backlog_mid: int
    backlog_end: int

    def failed(self) -> list[bool]:
        return [r is None or "error" in r or not r.get("ok")
                for r in self.replies]

    def latencies(self, kind: str = "query") -> list[float]:
        """Latencies of one op kind; a failed op misses every limit."""
        return [float("inf") if bad else lat
                for op, lat, bad in zip(self.ops, self.latency_ms,
                                        self.failed()) if op.kind == kind]

    def backlog_grows(self) -> bool:
        """The queue grew over the second half of the schedule by more than
        a tenth of that half's arrivals (and by at least 10 requests); the
        queue length of a busy but stable server wanders by a few."""
        growth = self.backlog_end - self.backlog_mid
        return growth > max(10, len(self.ops) // 20)


def _meets(phases: list[Phase]) -> bool:
    """No op failed, no backlog grew, and the pooled p99 is within limit."""
    lat = [x for p in phases for x in p.latencies("query")]
    return (not any(any(p.failed()) for p in phases)
            and not any(p.backlog_grows() for p in phases)
            and percentile(lat, 99) <= LATENCY_LIMIT_MS)


def _warmup(port: int, ops: list[Op]) -> None:
    client = common.Client(port)
    try:
        for op in ops:
            client.call(op.request)
    finally:
        client.close()


def run_phase(port: int, ops: list[Op], offsets: list[float], rate: float,
              seconds: float) -> Phase:
    loop = run_open_loop(port, [op.line for op in ops], offsets,
                         connections=min(2, os.cpu_count() or 1),
                         duration_s=seconds)
    replies = []
    for raw in loop.replies:
        try:
            replies.append(json.loads(raw) if raw is not None else None)
        except json.JSONDecodeError:
            replies.append(None)
    return Phase(rate, ops, loop.latency_ms, replies, loop.late_ms,
                 loop.backlog_mid, loop.backlog_end)


# --- verification ------------------------------------------------------------


class Verifier:
    """Re-derives each query reply's logits digest in this process, with the
    reference composition, from the reply's own route and the request's
    merge spec, and checks the route against the adapters' centroids."""

    def __init__(self, assets: dict):
        from loramem import adapterio, memlab

        self.adapters = {}
        self.initial = set()
        for path in sorted(assets["preload"].glob("*.lmem")):
            ad = adapterio.load(path)
            self.adapters[ad.name] = ad
            self.initial.add(ad.name)
        for path in assets["pool"]:
            ad = adapterio.load(path)
            self.adapters[ad.name] = ad
        any_ad = next(iter(self.adapters.values()))
        self.w0 = memlab.frozen_base(int(any_ad.metadata["seed"]),
                                     int(any_ad.metadata["d_in"])).data
        self.centroid = {name: np.asarray(json.loads(ad.metadata["centroid"]))
                         for name, ad in self.adapters.items()}
        self.composer = reference.Composer(self.adapters)

    def check(self, op: Op, reply: dict) -> bool:
        if op.kind == "register":
            return isinstance(reply.get("adapters"), int)
        route = reply.get("route")
        top_n = op.request["top_n"]
        if not isinstance(route, list) or len(route) != top_n:
            return False
        ids = tuple(mid for mid, _ in route)
        if len(set(ids)) != len(ids) or any(i not in self.adapters
                                            for i in ids):
            return False
        unit = op.vector / np.linalg.norm(op.vector)
        scores = [float(self.centroid[i] @ unit) for i in ids]
        if any(abs(s - float(r)) > 1e-9 for s, (_, r) in zip(scores, route)):
            return False
        if any(a < b - 1e-12 for a, b in zip(scores, scores[1:])):
            return False
        # Preloaded adapters are always present, so none outside the route
        # may outrank its last entry.
        floor = scores[-1]
        for name in self.initial.difference(ids):
            if float(self.centroid[name] @ unit) > floor + 1e-12:
                return False
        weight = self.w0 + self.composer.delta(ids, op.request.get("merge"))
        logits = weight @ op.vector
        digest = hashlib.sha256(
            np.ascontiguousarray(logits).astype("<f8").tobytes()).hexdigest()
        return digest == reply.get("em_logits_digest")


# --- the workload ------------------------------------------------------------


def _launch(assets: dict, spans: list[Path] | None, work: Path):
    """Start a server and time launch -> stats showing every adapter."""
    from loramem import servebench

    trace_file = None
    if spans is not None:
        trace_file = work / f"server_spans_{len(spans)}.jsonl"
        spans.append(trace_file)
    srv = common.ServerProcess.registry(assets["preload"], trace_file)
    expected = len(list(assets["preload"].glob("*.lmem")))
    t_rtt = time.perf_counter()
    stats = servebench.request_line("127.0.0.1", srv.port, {"op": "stats"})
    rtt_ms = (time.perf_counter() - t_rtt) * 1e3
    if stats.get("adapters") != expected:
        srv.stop()
        raise RuntimeError(f"server registered {stats.get('adapters')} of "
                           f"{expected} adapters")
    return srv, time.perf_counter() - srv.launched, rtt_ms


def run(wl: ServeWorkload, seed: int, seconds: float, trace: bool,
        work: Path, smoke: bool = False) -> dict:
    """Set-up, then ROUNDS rounds. Each round after the first repeats the
    set-up training of the preloaded set and of one pool chunk; each
    launches a fresh server and runs a nominal-rate window, one ladder
    probe and, on serve_hot, a batch of closed-loop registers. Host speed drifts over seconds on small shared machines;
    spreading every measurement over the whole run averages that drift
    instead of letting one slow stretch decide a metric."""
    common.require_source()
    if trace:
        # The set-up training is traced in this process; the serving layers
        # in each traced server process.
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            assets = prepare(wl, seed, work)
        finally:
            tracing.uninstall(saved)
        set_up_spans = work / "setup_spans.jsonl"
        tracer.dump(set_up_spans)
    else:
        assets = prepare(wl, seed, work)
    # Separate streams, so the nominal windows' inputs depend on the seed
    # alone and not on where the ladder search went.
    nominal_rng = np.random.default_rng([seed, 1])
    probe_rng = np.random.default_rng([seed, 2])
    warm_ops = make_ops(wl, np.random.default_rng([seed, 3]),
                        WARMUP_QUERIES, dict(assets, pool=[]), [0])
    server_spans: list[Path] | None = [] if trace else None
    # Per server, the warm-up and the ladder probe as perf_counter_ns
    # intervals. The probes' rates follow the server's speed, so the traced
    # figures leave them out and cover a fixed amount of traffic: set-up
    # training, server start-up, the nominal windows and the registers.
    skipped: list[list[tuple[int, int]]] = []
    setup_samples, startup, rtts, rss, crashes = [], [], [], [], []
    windows: list[Phase] = []
    probes: list[Phase] = []
    register_ms: list[list[float]] = []
    rounds = 2 if smoke else ROUNDS
    window_s = seconds / rounds
    # The ladder: binary search for the highest passing rung, one probe per
    # round; lo = -1 stands for "no rung passed".
    rungs = [LADDER_BASE_QPS * LADDER_STEP ** k for k in range(LADDER_RUNGS)]
    lo, hi = -1, len(rungs)

    def phase(port: int, rate: float, rng, seconds: float,
              pool_cursor: list[int]) -> Phase:
        offsets = poisson_offsets(rng, rate, seconds)
        ops = make_ops(wl, rng, len(offsets), assets, pool_cursor)
        return run_phase(port, ops, offsets, rate, seconds)

    def registers(port: int) -> None:
        batch = []
        client = common.Client(port)
        try:
            for path in assets["pool"][:wl.register_batch]:
                time.sleep(REGISTER_GAP_S)
                reply, rtt = client.call({"op": "register",
                                          "path": str(path)})
                batch.append(rtt if reply.get("ok") else float("inf"))
        finally:
            client.close()
        if batch:
            register_ms.append(batch)

    for r in range(rounds):
        if r:
            repeat_training(wl, seed, work, r, assets)
        # One fresh server per round: the nominal window, then the ladder
        # probe, then (serve_hot) the closed-loop registers. The pool cursor
        # is shared so a server never sees the same adapter name twice.
        srv, setup_s, rtt = _launch(assets, server_spans, work)
        setup_samples.append(setup_s)
        startup.append(srv.startup_s)
        rtts.append(rtt)
        cursor = [0]
        skip: list[tuple[int, int]] = []
        skipped.append(skip)
        try:
            t = time.perf_counter_ns()
            _warmup(srv.port, warm_ops)
            skip.append((t, time.perf_counter_ns()))
            windows.append(phase(srv.port, wl.nominal_qps, nominal_rng,
                                 window_s, cursor))
            if hi - lo > 1:
                mid = (lo + hi) // 2
                t = time.perf_counter_ns()
                probes.append(phase(srv.port, rungs[mid], probe_rng,
                                    window_s, cursor))
                skip.append((t, time.perf_counter_ns()))
                if _meets(probes[-1:]):
                    lo = mid
                else:
                    hi = mid
            rss.append(srv.peak_rss_mb())
            registers(srv.port)
        finally:
            crash = srv.stop()
            if crash:
                crashes.append(crash)

    verifier = Verifier(assets)
    mismatches = attempted = failed = 0
    for done in windows + probes:
        bad = done.failed()
        for i, (op, reply) in enumerate(zip(done.ops, done.replies)):
            attempted += 1
            if bad[i]:
                failed += 1
            elif not verifier.check(op, reply):
                mismatches += 1
                failed += 1
                done.replies[i] = None
    attempted += sum(len(b) for b in register_ms)
    failed += sum(x == float("inf") for b in register_ms for x in b)

    # Below the ladder, the nominal rate stands in when its windows meet the
    # limit, and half of it when they do not.
    nominal_ok = _meets(windows)
    if lo >= 0:
        max_rate = rungs[lo]
    else:
        max_rate = wl.nominal_qps if nominal_ok else wl.nominal_qps / 2
    ops = [op for w in windows for op in w.ops]
    replies = [r for w in windows for r in w.replies]
    latency = [x for w in windows for x in w.latencies("query")]
    late = [x for w in windows for x in w.late_ms]
    # Register latency: the median over rounds of each round's median, so
    # one round on an unusually fast or slow process does not decide it.
    reg_rounds = [w.latencies("register") for w in windows
                  if w.latencies("register")] or register_ms
    multi_s = median(assets["multi_walls"])
    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "sweep_cells_per_s": (median(assets["pool_rates"]), "1/s"),
        "multi_s": (multi_s, "s"),
        "query_p50_ms": (percentile(latency, 50), "ms"),
        "query_p90_ms": (percentile(latency, 90), "ms"),
        "query_p99_ms": (percentile(latency, 99), "ms"),
        "max_rate_qps": (max_rate, "1/s"),
        "register_p50_ms": (median([median(x) for x in reg_rounds]), "ms"),
        "server_rss_mb": (median(rss), "MiB"),
    }
    answered = [(r, lat) for op, r, lat in
                zip(ops, replies, [x for w in windows for x in w.latency_ms])
                if r is not None and op.kind == "query"]
    wait = [lat - sum(r["stage_times"].values()) for r, lat in answered]
    stages = ("index_search", "lora_merge", "lora_activation", "inference")
    layers = {f"servebench.stage.{st}_p50_ms":
              median([r["stage_times"][st] for r, _ in answered])
              for st in stages}
    layers.update({
        "servebench.wait_ms_p50": percentile(wait, 50),
        "servebench.wait_ms_p99": percentile(wait, 99),
        "servebench.oneshot_rtt_ms": median(rtts),
        "cli.startup_s": median(startup),
        "loadgen.late_ms_p99": percentile(late, 99),
    })
    # Each window starts on a fresh server, so its replies up to its first
    # register depend on the seed alone; later routes depend on when the
    # registers landed.
    digest = hashlib.sha256()
    for w in windows:
        for op, reply in zip(w.ops, w.replies):
            if op.kind == "register":
                break
            digest.update(json.dumps(
                [[mid for mid, _ in reply["route"]],
                 reply["em_logits_digest"]] if reply else None).encode())
    valid = (layers["loadgen.late_ms_p99"] <= MAX_LATE_P99_MS
             and not any(w.backlog_grows() for w in windows))
    detail = {
        "nominal_qps": wl.nominal_qps,
        "window_s": window_s,
        "nominal_queries": len(latency),
        "nominal_registers": sum(op.kind == "register" for op in ops),
        "ladder": [{"rate": p.rate, "ops": len(p.ops),
                    "p99_ms": percentile(p.latencies("query"), 99),
                    "failed": sum(p.failed()),
                    "backlog": [p.backlog_mid, p.backlog_end],
                    "passed": _meets([p])}
                   for p in probes],
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "setup_samples_s": setup_samples,
        "multi_walls_s": assets["multi_walls"],
        "pool_rates_per_s": assets["pool_rates"],
        "register_round_p50_ms": [median(x) for x in reg_rounds],
        "digest_mismatches": mismatches,
        "outputs_digest": digest.hexdigest(),
        "valid": valid,
        "server_crashes": crashes,
    }
    if trace:
        spans, counters = tracing.read_spans([set_up_spans] + server_spans,
                                             [[]] + skipped)
        layers.update(tracing.aggregate(spans, counters))
    return {"metrics": metrics, "layers": layers, "detail": detail,
            "ops_attempted": attempted, "ops_failed": failed,
            "correct": mismatches == 0 and valid and not crashes}
