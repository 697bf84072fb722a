"""The lab workload: a closed batch run in this process through
`loramem.cli.main` — a capacity sweep over the default grid, then the
multi-module phase (`multi run`, `multi interference`, and `bench` in
preloaded and dynamic mode on the adapters `multi run` saved).

Commands run with the work directory as the current directory and relative
paths, so the config echoes in their outputs do not depend on where the
checkout is, and the non-timing outputs can be pinned by digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from pathlib import Path
from statistics import median

from . import common, tracing
from .common import percentile, run_cli

MULTI_PAIRS = 120
MULTI_BUDGET = 700
QUESTIONS = 30
# The multi-module phase runs this many times; multi_s is the median wall
# time, and every repeat must give the same outputs.
MULTI_REPEATS = 3
STAGES = ("index_search", "lora_merge", "lora_activation", "inference")
MERGE_FLAGS = ("--merge", "ties", "--density", "0.3")


def sweep_seeds(seed: int) -> list[int]:
    return [seed * 1000 + 101, seed * 1000 + 202, seed * 1000 + 303]


class _FirstStep(BaseException):
    """Raised at the first training step. `cli.main` catches Exception
    only, so this ends the command there."""


def _set_up_inputs(seed: int) -> float:
    """Input generation and slicing before the first training step, as the
    program does it: `lab gen` of the multi-phase phonebook, then the
    `sweep` command stopped at its first `memlab.train` call. Returns the
    time taken."""
    from loramem import memlab

    t0 = time.perf_counter()
    code, _ = run_cli(["lab", "gen", "--pairs", str(MULTI_PAIRS), "--seed",
                       str(seed), "--budget", str(MULTI_BUDGET),
                       "--out", "phonebook.txt"])
    if code != 0:
        raise RuntimeError(f"lab gen exited {code}")

    def first_step(*args, **kwargs):
        raise _FirstStep

    train, memlab.train = memlab.train, first_step
    try:
        run_cli(["sweep", "--grid", "grid.json", "--out", "setup.csv",
                 "--efficiency-out", "setup_efficiency.csv"])
    except _FirstStep:
        return time.perf_counter() - t0
    finally:
        memlab.train = train
    raise RuntimeError("sweep ended before its first training step")


def _nontiming_bench(blob: dict) -> dict:
    report = blob["report"]
    return {
        "artifact": blob["artifact"], "config": blob["config"],
        "mode": report["mode"], "em": report["em"],
        "question_count": report["question_count"],
        "read_counts": report["read_counts"],
        "stages": [name for name, _ in report["stages"]],
        "per_query": [sorted(q) for q in report["per_query"]],
    }


def outputs_digest(work: Path, rep: Path) -> str:
    """sha256 of every non-timing output of the batch."""
    blob = {
        "results.csv": (work / "results.csv").read_text(encoding="utf-8"),
        "efficiency.csv": (work / "efficiency.csv").read_text(
            encoding="utf-8"),
        "multi_run": json.loads((rep / "multi.json").read_text()),
        "interference": json.loads((rep / "interference.json").read_text()),
        "bench": [_nontiming_bench(json.loads((rep / f"bench_{m}.json")
                                              .read_text()))
                  for m in ("preloaded", "dynamic")],
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode())\
        .hexdigest()


def check_outputs(work: Path, rep: Path, grid: dict) -> list[str]:
    """Consistency checks that hold for every seed."""
    from loramem import analysis

    problems = []
    rows = [line.split(",") for line in
            (work / "results.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    ranks = tuple(grid.get("ranks", analysis.DEFAULT_RANKS))
    loads = tuple(grid.get("loads", analysis.DEFAULT_LOADS))
    seeds = grid["seeds"]
    expect = [(r, l, s) for r in ranks for l in loads for s in seeds]
    got = [(int(r), int(l), int(s)) for r, l, s, _, _ in rows]
    if got != expect:
        problems.append("results.csv cells differ from the grid")
    em = {(int(r), int(l)): [] for r, l, *_ in rows}
    for r, l, _, e, p in rows:
        em[(int(r), int(l))].append(float(e))
        if not 0.0 <= float(e) <= 1.0 or int(p) != int(r) * (256 + 100):
            problems.append(f"results.csv row {r},{l}: em {e}, params {p}")
    # The efficiency file must follow from the results file.
    expect_eff = []
    for r in ranks:
        t_max = None
        for l in loads:
            if sum(em[(r, l)]) / len(em[(r, l)]) >= analysis.DEFAULT_TAU:
                t_max = l
        expect_eff.append((r, t_max))
    eff = [line.split(",") for line in
           (work / "efficiency.csv").read_text().splitlines()
           if line and not line.startswith("#")][1:]
    got_eff = [(int(r), int(t) if t else None) for r, t, _, _ in eff]
    if got_eff != expect_eff:
        problems.append(f"efficiency.csv t_max {got_eff} != {expect_eff}")
    multi = json.loads((rep / "multi.json").read_text())
    inter = json.loads((rep / "interference.json").read_text())
    # Oracle top-1 over the same shards is per-shard evaluation, so the
    # n=1 interference point is the size-weighted per-shard exact match.
    sizes = _shard_sizes(work, multi["shards"])
    weighted = sum(e * n for e, n in zip(multi["per_shard_em"], sizes)) \
        / sum(sizes)
    if abs(inter["em_by_merge_count"]["1"] - weighted) > 1e-9:
        problems.append("interference n=1 disagrees with per-shard em")
    benches = [json.loads((rep / f"bench_{m}.json").read_text())["report"]
               for m in ("preloaded", "dynamic")]
    if benches[0]["em"] != benches[1]["em"]:
        problems.append("preloaded and dynamic bench em differ")
    return problems


def _shard_sizes(work: Path, shards: int) -> list[int]:
    from loramem import memlab, multimem

    dataset = memlab.load_dataset(work / "phonebook.txt")
    plan = multimem.partition(dataset, shards)
    return [len(plan.indices_of(s)) for s in range(shards)]


class _LineClock(io.TextIOBase):
    """A stderr stand-in that records when each line is completed."""

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self.stamps.extend(now for _ in range(text.count("\n")))
        return len(text)


def _sweep(grid: dict) -> tuple[int, float]:
    """Run the sweep; return the exit code and its throughput in cells per
    second. Each (rank, load) group contributes three times its median
    seed's cell time, so a host stall during one cell does not move the
    figure, while a change to every cell does."""
    clock = _LineClock()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(clock):
        code, _ = run_cli(["sweep", "--grid", "grid.json", "--out",
                           "results.csv", "--efficiency-out",
                           "efficiency.csv", "--verbose"])
    ends = clock.stamps
    cells = [b - a for a, b in zip([t0] + ends, ends)]
    per_group = len(grid["seeds"])
    groups = [cells[i:i + per_group] for i in range(0, len(cells), per_group)]
    total = sum(per_group * median(g) for g in groups)
    return code, (len(cells) / total if total else 0.0)


def _bench_argv(seed: int, mode: str, out: str) -> list[str]:
    return ["bench", "--mode", mode, "--questions", str(QUESTIONS),
            "--data", "../phonebook.txt", "--adapters", "adapters",
            "--topn", "3", *MERGE_FLAGS, "--seed", str(seed % 1000 + 7),
            "--out", out]


def _multi_phase(seed: int) -> list[str]:
    """The multi-module phase in the current directory; returns the
    commands that failed."""
    train_seed = str(seed % 1000 + 7)
    data = ["--data", "../phonebook.txt"]
    commands = [
        ["multi", "run", *data, "--shards", "8", "--rank", "8", "--route",
         "cosine", "--noise", "0.5", "--topn", "3", *MERGE_FLAGS, "--seed",
         train_seed, "--report", "multi.json", "--save-adapters", "adapters"],
        ["multi", "interference", *data, "--shards", "8", "--rank", "8",
         "--n-range", "1,2,3,4,5", *MERGE_FLAGS, "--seed", train_seed,
         "--report", "interference.json"],
    ] + [_bench_argv(seed, mode, f"bench_{mode}.json")
         for mode in ("preloaded", "dynamic")]
    return [" ".join(argv[:2]) for argv in commands if run_cli(argv)[0]]


def run(seed: int, trace: bool, work: Path, smoke: bool = False) -> dict:
    common.require_source()
    from loramem import analysis

    grid = {"seeds": sweep_seeds(seed), "base": {"seed": seed}}
    if smoke:
        grid.update(ranks=[2, 8], loads=[16, 150])
    cwd = os.getcwd()
    os.chdir(work)
    saved = None
    failures = []
    multi_walls = []
    reps = [work / f"multi{r}" for r in range(MULTI_REPEATS)]
    try:
        if trace:
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
        (work / "grid.json").write_text(json.dumps(grid))
        setup = []

        def set_up() -> None:
            os.chdir(work)
            setup.extend(_set_up_inputs(seed) for _ in range(2))

        def loading_bench(rep: Path) -> None:
            """A dynamic `bench` outside the timed phase: more
            register_p50_ms samples, spread over the run."""
            os.chdir(rep)
            out = f"loading{len(list(work.glob('multi*/loading*.json')))}"
            if run_cli(_bench_argv(seed, "dynamic", out + ".json"))[0]:
                failures.append("bench (loading)")

        # Set-up samples, loading samples and multi-phase repeats are spread
        # around the sweep, so a slow stretch of the host does not decide a
        # metric.
        set_up()
        for r, rep in enumerate(reps):
            if r == 1:
                code, cells_per_s = _sweep(grid)
                if code:
                    failures.append("sweep")
                loading_bench(reps[0])
                set_up()
            rep.mkdir()
            os.chdir(rep)
            t0 = time.perf_counter()
            failures += _multi_phase(seed)
            multi_walls.append(time.perf_counter() - t0)
            loading_bench(rep)
            set_up()
        if saved is not None:
            tracing.uninstall(saved)
            saved = None
            tracer.dump(work / "spans.jsonl")
    finally:
        if saved is not None:
            tracing.uninstall(saved)
        os.chdir(cwd)

    problems = list(failures)
    digest = None
    if not failures:
        problems += check_outputs(work, reps[0], grid)
        digests = {outputs_digest(work, rep) for rep in reps}
        if len(digests) != 1:
            problems.append("repeated multi phases gave different outputs")
        digest = min(digests)
    golden = json.loads((common.BENCH_DIR / "golden.json").read_text())
    pinned = golden["lab"].get(str(seed)) if not smoke else None
    if pinned is not None and digest != pinned:
        problems.append(f"output digest {digest} != pinned {pinned}")

    questions, loading, bench_p99 = [], [], []
    stage_ms = {st: [] for st in STAGES}
    for rep in reps:
        for mode in ("preloaded", "dynamic"):
            path = rep / f"bench_{mode}.json"
            if not path.exists():
                continue
            report = json.loads(path.read_text())["report"]
            times = [sum(q.values()) for q in report["per_query"]]
            questions += times
            bench_p99.append(percentile(times, 99))
            for q in report["per_query"]:
                for st in STAGES:
                    stage_ms[st].append(q.get(st, 0.0))
                if mode == "dynamic":
                    loading.append(q["lora_loading"])
    for path in sorted(work.glob("multi*/loading*.json")):
        if not (path.parent / "bench_dynamic.json").exists():
            continue
        report = json.loads(path.read_text())["report"]
        dynamic = json.loads((path.parent / "bench_dynamic.json")
                             .read_text())["report"]
        if report["em"] != dynamic["em"]:
            problems.append(f"{path.name} em differs from bench_dynamic")
        loading += [q["lora_loading"] for q in report["per_query"]]
    if not questions:
        questions = loading = bench_p99 = [float("inf")]
    metrics = {
        "setup_s": (median(setup), "s"),
        "sweep_cells_per_s": (cells_per_s, "1/s"),
        "multi_s": (median(multi_walls), "s"),
        "query_p50_ms": (percentile(questions, 50), "ms"),
        "query_p90_ms": (percentile(questions, 90), "ms"),
        # The p99 of one bench run's 30 questions is their maximum; the
        # median over the six runs keeps a stalled question or two from
        # deciding the figure.
        "query_p99_ms": (median(bench_p99), "ms"),
        "max_rate_qps": (len(questions) / (sum(questions) / 1e3), "1/s"),
        "register_p50_ms": (percentile(loading, 50), "ms"),
        "server_rss_mb": (common.peak_rss_mb(os.getpid()), "MiB"),
    }
    layers = {f"servebench.stage.{st}_p50_ms": median(v) if v else 0.0
              for st, v in stage_ms.items()}
    if trace:
        spans, counters = tracing.read_spans([work / "spans.jsonl"])
        layers.update(tracing.aggregate(spans, counters))
    cells = len(grid.get("ranks", analysis.DEFAULT_RANKS)) \
        * len(grid.get("loads", analysis.DEFAULT_LOADS)) * len(grid["seeds"])
    # Sweep cells, the sweep, the four commands of each multi phase and the
    # loading benches.
    attempted = cells + 1 + 4 * MULTI_REPEATS + MULTI_REPEATS + 1
    return {"metrics": metrics, "layers": layers,
            "detail": {"outputs_digest": digest, "pinned": pinned,
                       "problems": problems, "setup_samples_s": setup,
                       "multi_walls_s": multi_walls,
                       "questions": len(questions)},
            "ops_attempted": attempted,
            "ops_failed": len(failures) + (bool(problems) and not failures),
            "correct": not problems}
