"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Heavy artifacts (the capacity sweep, shard systems) are module
fixtures shared across criteria.
"""

import itertools
import json
import math
import re
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from loramem import (adapterio, analysis, cli, memlab, merge as merge_mod,
                     multimem, router, servebench)
from loramem.adapterio import Adapter, LowRankPair
from loramem.matcore import Matrix, Rng
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.multimem import SystemConfig
from loramem.router import PolicyKind, RoutingPolicy
from loramem.servebench import BenchScenario, Mode

NOISE_LEVELS = (0.0, 0.5, 1.0, 2.0)


@contextmanager
def criterion(number: int, title: str, limit_seconds: float | None = None):
    start = time.time()
    try:
        yield
        elapsed = time.time() - start
        if limit_seconds is not None:
            assert elapsed < limit_seconds, \
                f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    except BaseException:
        print(f"FAIL criterion {number:2d}: {title}")
        raise
    print(f"PASS criterion {number:2d}: {title} [{time.time() - start:.1f}s]")


# --- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_result():
    return analysis.run_sweep(analysis.SweepGrid(), TrainConfig())


@pytest.fixture(scope="module")
def shard_system():
    """S=8 system at a per-shard load every shard memorizes perfectly."""
    records = memlab.gen_phonebook(120, seed=9)
    dataset = memlab.slice_by_budget(records, 700)
    systems = {}
    for seed in (101, 202, 303):
        cfg = TrainConfig(rank=8, alpha=8.0, learning_rate=0.5, steps=1500,
                          batch_size=8, seed=seed)
        plan = multimem.partition(dataset, 8)
        adapters = multimem.train_shards(dataset, plan, cfg)
        index = multimem.build_shard_index(dataset, plan)
        systems[seed] = (cfg, plan, adapters, index)
    return dataset, systems


def rand_small_adapter(rng: Rng, name: str, shapes, rank: int) -> Adapter:
    targets = {}
    for tid, (d_out, d_in) in shapes.items():
        sub = rng.derive(tid)
        targets[tid] = LowRankPair(
            a=Matrix(sub.gaussian(rank * d_in).reshape(rank, d_in)),
            b=Matrix(sub.gaussian(d_out * rank).reshape(d_out, rank)),
            alpha=0.5 + sub.uniform(1)[0] * 2.0, rank=rank)
    return Adapter(name=name, targets=targets)


def naive_delta(pair: LowRankPair) -> np.ndarray:
    out = np.zeros((pair.d_out, pair.d_in))
    for i in range(pair.d_out):
        for j in range(pair.d_in):
            acc = 0.0
            for k in range(pair.rank):
                acc += pair.b.data[i, k] * pair.a.data[k, j]
            out[i, j] = acc * (pair.alpha / pair.rank)
    return out


def ties_reference(deltas, weights, density):
    n = deltas[0].size
    keep = math.ceil(density * n)
    trimmed = []
    for d in deltas:
        flat = d.ravel()
        order = sorted(range(n), key=lambda i: (-abs(flat[i]), i))
        kept = set(order[:keep])
        trimmed.append(np.array(
            [flat[i] if i in kept else 0.0 for i in range(n)]
        ).reshape(d.shape))
    out = np.zeros_like(deltas[0])
    for pos in np.ndindex(out.shape):
        total = sum(w * t[pos] for w, t in zip(weights, trimmed))
        sign = np.sign(total)
        if sign != 0:
            num = sum(w * t[pos] for w, t in zip(weights, trimmed)
                      if np.sign(t[pos]) == sign)
            den = sum(w for w, t in zip(weights, trimmed)
                      if np.sign(t[pos]) == sign and t[pos] != 0)
            out[pos] = num / den
    return out


def value_adapter(name, values) -> Adapter:
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return Adapter(name=name, targets={"t0": LowRankPair(
        a=Matrix(row), b=Matrix(np.array([[1.0]])), alpha=1.0, rank=1)})


# --- criteria ----------------------------------------------------------------


def test_criterion_01_merge_algebra_oracles():
    with criterion(1, "merge algebra matches independent brute-force oracles",
                   limit_seconds=30):
        master = Rng(2024)
        for case in range(200):
            rng = master.derive("case", case)
            n_adapters = 1 + case % 4
            shapes = {}
            for t in range(1 + case % 2):
                dims = rng.derive("dims", t).integers(2, 8) + 1  # 1..8
                shapes[f"t{t}"] = (int(dims[0]), int(dims[1]))
            rank = 1 + case % 4
            ads = [rand_small_adapter(rng.derive("ad", i), f"a{i}", shapes,
                                      rank) for i in range(n_adapters)]
            raw = rng.uniform(n_adapters) + 0.05
            weights = (raw / raw.sum()).tolist()
            weights[-1] = 1.0 - sum(weights[:-1])

            linear = merge_mod.merge(ads, MergeSpec(
                MergeMethod.LINEAR, weights=tuple(weights)))
            cat = merge_mod.merge(ads, MergeSpec(MergeMethod.CAT))
            for tid in shapes:
                oracle_deltas = [naive_delta(ad.targets[tid]) for ad in ads]
                expected_linear = np.zeros_like(oracle_deltas[0])
                expected_sum = np.zeros_like(oracle_deltas[0])
                for pos in np.ndindex(expected_linear.shape):
                    expected_linear[pos] = sum(
                        w * d[pos] for w, d in zip(weights, oracle_deltas))
                    expected_sum[pos] = sum(d[pos] for d in oracle_deltas)
                np.testing.assert_allclose(linear.densify(tid).data,
                                           expected_linear, atol=1e-12)
                np.testing.assert_allclose(cat.densify(tid).data,
                                           expected_sum, atol=1e-12)

        # exhaustive two-adapter trim/elect/merge reference
        for values, entries in ((( -1.0, 0.0, 2.0), 3), ((-1.0, 1.0), 6)):
            grids = list(itertools.product(values, repeat=entries))
            for left in grids:
                for right in grids:
                    ads = [value_adapter("L", left), value_adapter("R", right)]
                    deltas = [np.array([left]), np.array([right])]
                    for density in (0.25, 0.5, 1.0):
                        got = merge_mod.merge(ads, MergeSpec(
                            MergeMethod.TIES, weights=(0.5, 0.5),
                            density=density)).densify("t0").data
                        want = ties_reference(deltas, [0.5, 0.5], density)
                        np.testing.assert_allclose(got, want, atol=1e-12)

        # drop-and-rescale: p=0 identity and Monte-Carlo unbiasedness
        rng = Rng(7)
        shapes = {"t0": (4, 5)}
        ads = [rand_small_adapter(rng.derive(i), f"a{i}", shapes, 2)
               for i in range(3)]
        p0 = merge_mod.merge(ads, MergeSpec(
            method=MergeMethod.DARE_LINEAR, drop_rate=0.0, seed=1))
        plain = merge_mod.merge(ads, MergeSpec(MergeMethod.LINEAR))
        np.testing.assert_array_equal(p0.densify("t0").data,
                                      plain.densify("t0").data)
        unit = value_adapter("v", [1.0])
        total = 0.0
        n_seeds = 10_000
        for seed in range(n_seeds):
            spec = MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=0.5,
                             seed=seed)
            total += merge_mod.merge([unit], spec).densify("t0").data[0, 0]
        assert abs(total / n_seeds - 1.0) <= 0.05


def test_criterion_02_gradient_finite_differences():
    with criterion(2, "analytic gradients match central finite differences",
                   limit_seconds=10):
        eps = 1e-5
        for instance in range(5):
            rng = Rng(9000 + instance)
            d_in = 16 + instance * 4
            rank = 2 + instance % 2
            records = memlab.gen_phonebook(3, seed=500 + instance)
            ds = memlab.make_dataset(records, d_in=d_in)
            pair = LowRankPair(
                a=Matrix(rng.gaussian(rank * d_in).reshape(rank, d_in) * 0.4),
                b=Matrix(rng.gaussian(memlab.D_OUT * rank)
                         .reshape(memlab.D_OUT, rank) * 0.4),
                alpha=float(rank), rank=rank)
            w0 = memlab.frozen_base(instance, d_in)
            _, grad_a, grad_b = memlab.loss_and_grads(w0, pair, ds)

            def loss_at(a_arr, b_arr):
                p = LowRankPair(a=Matrix(a_arr), b=Matrix(b_arr),
                                alpha=float(rank), rank=rank)
                return memlab.loss_and_grads(w0, p, ds)[0]

            for which, grad in (("a", grad_a), ("b", grad_b)):
                base = (pair.a if which == "a" else pair.b).data
                for idx in np.ndindex(base.shape):
                    plus, minus = base.copy(), base.copy()
                    plus[idx] += eps
                    minus[idx] -= eps
                    if which == "a":
                        fd = (loss_at(plus, pair.b.data)
                              - loss_at(minus, pair.b.data)) / (2 * eps)
                    else:
                        fd = (loss_at(pair.a.data, plus)
                              - loss_at(pair.a.data, minus)) / (2 * eps)
                    denom = max(abs(fd), abs(grad[idx]), 1e-8)
                    assert abs(fd - grad[idx]) / denom < 1e-4


def test_criterion_03_recall_monotone_in_rank(sweep_result):
    with criterion(3, "mean recall non-decreasing in rank at fixed load",
                   limit_seconds=300):
        grid = sweep_result.grid
        ems = [sweep_result.mean_em(r, analysis.MONOTONICITY_LOAD)
               for r in grid.ranks]
        for lower, higher in zip(ems, ems[1:]):
            assert higher >= lower - 0.02, f"rank curve dipped: {ems}"


def test_criterion_04_saturation_ordering(sweep_result):
    with criterion(4, "threshold crossing is single and ordered by rank"):
        grid = sweep_result.grid
        crossings = []
        for rank in grid.ranks:
            above = [sweep_result.mean_em(rank, load) >= grid.tau
                     for load in grid.loads]
            assert above[0], f"rank {rank} fails the smallest load"
            assert not above[-1], f"rank {rank} never saturates in range"
            flips = sum(1 for a, b in zip(above, above[1:]) if a != b)
            assert flips == 1, f"rank {rank} crosses more than once: {above}"
            crossings.append(max(load for load, ok
                                 in zip(grid.loads, above) if ok))
        for lower, higher in zip(crossings, crossings[1:]):
            assert higher >= lower, f"crossing loads out of order: {crossings}"


def test_criterion_05_efficiency_peak_interior(sweep_result):
    with criterion(5, "tokens-per-parameter efficiency peaks strictly inside "
                      "the rank range"):
        grid = sweep_result.grid
        curve = analysis.efficiency_curve(sweep_result, grid.tau)
        assert curve, "no rank has a supported load"
        peak = max(curve, key=curve.get)
        print(f"      efficiency curve: "
              f"{{{', '.join(f'{r}: {v:.4f}' for r, v in curve.items())}}} "
              f"(peak rank {peak}, reported not asserted)")
        assert peak != grid.ranks[0]
        assert peak != grid.ranks[-1]


def test_criterion_06_partitioning_beats_saturated_single():
    with criterion(6, "oracle-routed 8-shard system beats the matched-budget "
                      "single adapter by >= 0.2 at a saturating load",
                   limit_seconds=300):
        records = memlab.gen_phonebook(800, seed=9)
        dataset = memlab.slice_by_budget(records, 8000)
        shard_rank, shards = 16, 8
        single_rank = shard_rank * shards  # equal trainable-parameter budget
        for seed in (101, 202, 303):
            single_cfg = TrainConfig(rank=single_rank, alpha=float(single_rank),
                                     learning_rate=0.5, steps=1500,
                                     batch_size=8, seed=seed)
            single = memlab.train(dataset, single_cfg)
            single_em = memlab.evaluate(single.model, dataset)

            shard_cfg = TrainConfig(rank=shard_rank, alpha=float(shard_rank),
                                    learning_rate=0.5, steps=1500,
                                    batch_size=8, seed=seed)
            plan = multimem.partition(dataset, shards)
            adapters = multimem.train_shards(dataset, plan, shard_cfg)
            budget_multi = sum(adapterio.count_params(ad) for ad in adapters)
            budget_single = adapterio.count_params(
                Adapter(name="s", targets={"memory": single.pair}))
            assert budget_multi == budget_single

            index = multimem.build_shard_index(dataset, plan)
            report = multimem.eval_system(dataset, adapters, index,
                                          SystemConfig(
                                              train=shard_cfg,
                                              policy=RoutingPolicy(
                                                  kind=PolicyKind.ORACLE),
                                              merge=MergeSpec(
                                                  method=MergeMethod.TIES),
                                              top_n=1))
            assert single_em <= 0.5, f"seed {seed}: load does not saturate " \
                                     f"the single adapter (em={single_em})"
            assert report.em - single_em >= 0.2, \
                f"seed {seed}: multi {report.em} vs single {single_em}"


def test_criterion_07_routing_gap_and_noise_ordering(shard_system):
    with criterion(7, "noisy routing never beats oracle and accuracy decays "
                      "with noise"):
        dataset, systems = shard_system
        # recall gap, per seed
        for seed, (cfg, plan, adapters, index) in systems.items():
            oracle = multimem.eval_system(dataset, adapters, index,
                                          SystemConfig(
                                              train=cfg,
                                              policy=RoutingPolicy(
                                                  kind=PolicyKind.ORACLE),
                                              merge=MergeSpec(
                                                  method=MergeMethod.TIES),
                                              top_n=1))
            for eta in NOISE_LEVELS[1:]:
                noisy = multimem.eval_system(
                    dataset, adapters, index,
                    SystemConfig(train=cfg,
                                 policy=RoutingPolicy(
                                     kind=PolicyKind.COSINE_TOP_K,
                                     noise_stddev=eta, seed=seed),
                                 merge=MergeSpec(method=MergeMethod.TIES),
                                 top_n=1))
                assert noisy.em <= oracle.em + 0.01

        # routing accuracy over the noise grid, mean of 3 seeds,
        # tiled queries tighten the estimate
        _, plan, _, index = systems[101]
        truths = [f"shard_{plan.assignment[i]:03d}"
                  for i in range(len(dataset))]
        tiled = Matrix(np.tile(dataset.keys.data, (5, 1)))
        labels = truths * 5
        curves = []
        for seed in systems:
            accs = []
            for eta in NOISE_LEVELS:
                policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=1,
                                       noise_stddev=eta, seed=seed)
                accs.append(router.routing_accuracy(index, tiled, labels,
                                                    policy))
            curves.append(accs)
        means = [statistics.mean(c[i] for c in curves)
                 for i in range(len(NOISE_LEVELS))]
        print(f"      accuracy over noise {NOISE_LEVELS}: "
              f"{[round(m, 3) for m in means]}")
        for prev, nxt in zip(means, means[1:]):
            assert nxt <= prev + 0.02, f"accuracy rose with noise: {means}"
        assert means[-1] < means[0], "no overall decrease across the sweep"


def test_criterion_08_interference_monotone_in_merge_count(shard_system):
    with criterion(8, "recall non-increasing in ground-truth merge count"):
        dataset, systems = shard_system
        curves = []
        for seed, (cfg, plan, adapters, index) in systems.items():
            sweep = multimem.interference_sweep(
                dataset, adapters,
                SystemConfig(train=cfg,
                             policy=RoutingPolicy(kind=PolicyKind.ORACLE),
                             merge=MergeSpec(method=MergeMethod.TIES,
                                             density=0.3),
                             top_n=1),
                [1, 2, 3, 4, 5])
            curves.append([sweep[n] for n in (1, 2, 3, 4, 5)])
        means = [statistics.mean(c[i] for c in curves) for i in range(5)]
        print(f"      recall by merge count 1..5: "
              f"{[round(m, 3) for m in means]}")
        for prev, nxt in zip(means, means[1:]):
            assert nxt <= prev + 0.02, f"recall rose with merge count: {means}"


def test_criterion_09_phonebook_protocol():
    with criterion(9, "generated numbers, prefix-nested slices, and "
                      "first-excess stopping", limit_seconds=5):
        records = memlab.gen_phonebook(1000, seed=5)
        pattern = re.compile(r"^\d{3}-\d{3}-\d{4}$")
        assert all(pattern.match(r.number) for r in records)
        assert len({r.name for r in records}) == len(records)

        budgets = (100, 300, 900, 2700)
        slices = [memlab.slice_by_budget(records, b) for b in budgets]
        for small, large in zip(slices, slices[1:]):
            assert large.records[:len(small)] == small.records
        for budget, sl in zip(budgets, slices):
            per = [memlab.count_tokens(memlab.format_record(r))
                   for r in sl.records]
            assert sum(per) > budget
            assert sum(per[:-1]) <= budget


def test_criterion_10_serving_cost_ordering(tmp_path):
    with criterion(10, "dynamic per-question loading costs at least what "
                       "preloading costs once, and preloading reads each "
                       "file exactly once", limit_seconds=120):
        records = memlab.gen_phonebook(120, seed=9)
        dataset = memlab.slice_by_budget(records, 700)
        cfg = TrainConfig(rank=8, alpha=8.0, learning_rate=0.5, steps=500,
                          batch_size=8, seed=7)
        plan = multimem.partition(dataset, 8)
        adapters = multimem.train_shards(dataset, plan, cfg)
        paths = []
        for ad in adapters:
            p = tmp_path / f"{ad.name}.lmem"
            adapterio.save(ad, p)
            paths.append(p)

        def scenario(mode):
            return BenchScenario(
                mode=mode, dataset=dataset, adapter_paths=list(paths),
                question_count=30, top_n=3,
                merge_spec=MergeSpec(method=MergeMethod.TIES, density=0.3),
                base_seed=cfg.seed)

        dynamic_loading, preloaded_loading, preloaded_once = [], [], []
        for _ in range(3):
            dyn = servebench.run_bench(scenario(Mode.DYNAMIC))
            pre = servebench.run_bench(scenario(Mode.PRELOADED))
            dynamic_loading.append(dyn.totals.get("lora_loading", 0.0))
            preloaded_loading.append(pre.totals.get("lora_loading", 0.0))
            preloaded_once.append(pre.totals["all_lora_loading"])
            assert sorted(pre.read_counts.values()) == [1] * len(paths)
        med_dyn = statistics.median(dynamic_loading)
        assert med_dyn >= statistics.median(preloaded_loading)
        assert med_dyn >= statistics.median(preloaded_once)


def test_criterion_11_format_and_determinism(tmp_path, capsys, monkeypatch):
    with criterion(11, "container round-trips bit-exactly and reports are "
                       "byte-identical across identical runs"):
        # quantized payload round trip is a fixed point
        rng = Rng(55)
        pair = LowRankPair(
            a=Matrix(rng.gaussian(3 * 7).reshape(3, 7)),
            b=Matrix(rng.gaussian(5 * 3).reshape(5, 3)),
            alpha=1.25, rank=3)
        adapter = Adapter(name="rt", targets={"t": pair},
                          metadata={"k": "v"})
        p1, p2 = tmp_path / "a.lmem", tmp_path / "b.lmem"
        adapterio.save(adapter, p1)
        adapterio.save(adapterio.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        # identical argv + seeds => byte-identical non-timing artifacts
        grid = {"ranks": [2, 4], "loads": [16, 150], "seeds": [1, 2],
                "tau": 0.9, "base": {"steps": 200}}
        blobs = []
        for tag in ("one", "two"):
            workdir = tmp_path / tag
            workdir.mkdir()
            (workdir / "grid.json").write_text(json.dumps(grid))
            monkeypatch.chdir(workdir)
            assert cli.main(["sweep", "--grid", "grid.json",
                             "--out", "results.csv",
                             "--efficiency-out", "efficiency.csv"]) == 0
            capsys.readouterr()
            assert cli.main(["lab", "gen", "--pairs", "40", "--seed", "6",
                             "--out", "pb.txt"]) == 0
            assert cli.main(["multi", "run", "--data", "pb.txt",
                             "--shards", "4", "--rank", "4",
                             "--steps", "200", "--route", "oracle",
                             "--report", "report.json"]) == 0
            capsys.readouterr()
            blobs.append(
                (workdir / "results.csv").read_bytes()
                + (workdir / "efficiency.csv").read_bytes()
                + (workdir / "pb.txt").read_bytes()
                + (workdir / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
