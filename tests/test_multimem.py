import numpy as np
import pytest

from loramem import adapterio, memlab, multimem
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.multimem import (
    ShardError, SystemConfig, build_shard_index, eval_system,
    interference_sweep, partition, train_shards,
)
from loramem.router import PolicyKind, RoutingPolicy


@pytest.fixture(scope="module")
def dataset():
    records = memlab.gen_phonebook(120, seed=9)
    return memlab.slice_by_budget(records, 700)  # 64 records


@pytest.fixture(scope="module")
def train_cfg():
    return TrainConfig(rank=8, alpha=8.0, learning_rate=0.5, steps=900,
                       batch_size=8, seed=101)


@pytest.fixture(scope="module")
def shard_setup(dataset, train_cfg):
    plan = partition(dataset, 8)
    adapters = train_shards(dataset, plan, train_cfg)
    index = build_shard_index(dataset, plan)
    return plan, adapters, index


def oracle_config(train_cfg, **kw):
    base = dict(train=train_cfg,
                policy=RoutingPolicy(kind=PolicyKind.ORACLE),
                merge=MergeSpec(method=MergeMethod.TIES, density=0.3),
                top_n=1)
    base.update(kw)
    return SystemConfig(**base)


# --- partition ---------------------------------------------------------------


def test_partition_single_shard(dataset):
    plan = partition(dataset, 1)
    assert plan.assignment == tuple([0] * len(dataset))


def test_partition_balanced_sizes(dataset):
    sub = dataset.subset(range(10))
    plan = partition(sub, 3)
    sizes = [len(plan.indices_of(s)) for s in range(3)]
    assert sizes == [4, 3, 3]


def test_partition_concatenation_restores_order(dataset):
    plan = partition(dataset, 5)
    joined = []
    for s in range(5):
        joined.extend(plan.indices_of(s))
    assert joined == list(range(len(dataset)))


def test_partition_out_of_range(dataset):
    with pytest.raises(ShardError):
        partition(dataset, 0)
    with pytest.raises(ShardError):
        partition(dataset, len(dataset) + 1)


# --- shard training ----------------------------------------------------------


def test_per_shard_recall_high(dataset, train_cfg, shard_setup):
    plan, adapters, _ = shard_setup
    w0 = memlab.frozen_base(train_cfg.seed, dataset.d_in)
    scores = multimem.per_shard_em(dataset, plan, adapters, w0)
    assert all(s >= 0.95 for s in scores)


def test_shard_adapters_differ(shard_setup):
    _, adapters, _ = shard_setup
    d0 = adapterio.delta(adapters[0].targets["memory"])
    d1 = adapterio.delta(adapters[1].targets["memory"])
    assert float(np.linalg.norm(d0.data - d1.data)) > 0


def test_single_shard_reduces_to_plain_training(dataset, train_cfg):
    plan = partition(dataset, 1)
    adapters = train_shards(dataset, plan, train_cfg)
    direct = memlab.train(dataset, train_cfg)
    assert adapters[0].targets["memory"].a == direct.pair.a
    assert adapters[0].targets["memory"].b == direct.pair.b


def test_adapter_metadata_carries_geometry(shard_setup):
    _, adapters, _ = shard_setup
    meta = adapters[0].metadata
    assert meta["seed"] == "101"
    assert meta["d_in"] == "256"
    assert len(__import__("json").loads(meta["centroid"])) == 256


# --- system evaluation -------------------------------------------------------


def test_oracle_top1_equals_mean_per_shard(dataset, train_cfg, shard_setup):
    plan, adapters, index = shard_setup
    report = eval_system(dataset, adapters, index, oracle_config(train_cfg))
    sizes = [len(plan.indices_of(s)) for s in range(plan.shard_count)]
    expected = sum(em * n for em, n in zip(report.per_shard_em, sizes)) \
        / len(dataset)
    assert report.em == pytest.approx(expected, abs=1e-12)
    assert report.routing_accuracy == 1.0


def test_cosine_em_bounded_by_oracle(dataset, train_cfg, shard_setup):
    _, adapters, index = shard_setup
    oracle = eval_system(dataset, adapters, index, oracle_config(train_cfg))
    for seed in (1, 2):
        cosine = eval_system(dataset, adapters, index, oracle_config(
            train_cfg,
            policy=RoutingPolicy(kind=PolicyKind.COSINE_TOP_K,
                                 noise_stddev=0.5, seed=seed)))
        assert cosine.em <= oracle.em + 0.01
        assert cosine.routing_accuracy < 1.0


def test_heavy_noise_collapses_em(dataset, train_cfg, shard_setup):
    _, adapters, index = shard_setup
    noisy = eval_system(dataset, adapters, index, oracle_config(
        train_cfg,
        policy=RoutingPolicy(kind=PolicyKind.COSINE_TOP_K,
                             noise_stddev=100.0, seed=3)))
    # ~1/8 routing accuracy means ~1/8 of queries hit their own shard
    assert noisy.routing_accuracy <= 0.3
    assert noisy.em <= 0.3


def test_system_deterministic(dataset, train_cfg, shard_setup):
    _, adapters, index = shard_setup
    cfg = oracle_config(train_cfg,
                        policy=RoutingPolicy(kind=PolicyKind.COSINE_TOP_K,
                                             noise_stddev=0.5, seed=11),
                        top_n=3)
    r1 = eval_system(dataset, adapters, index, cfg)
    r2 = eval_system(dataset, adapters, index, cfg)
    assert r1.em == r2.em
    assert r1.routing_accuracy == r2.routing_accuracy


def test_top_n_bounded_by_shards(dataset, train_cfg, shard_setup):
    _, adapters, index = shard_setup
    with pytest.raises(ShardError):
        eval_system(dataset, adapters, index,
                    oracle_config(train_cfg, top_n=9))


def test_merge_failures_surface_query_ordinal(dataset, train_cfg, shard_setup,
                                              monkeypatch):
    _, adapters, index = shard_setup
    from loramem import merge as merge_mod

    def boom(*args, **kwargs):
        raise merge_mod.MergeError("synthetic failure")

    monkeypatch.setattr(merge_mod, "merge", boom)
    cfg = oracle_config(
        train_cfg, top_n=2,
        policy=RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=2))
    with pytest.raises(ShardError, match=r"query 0:"):
        eval_system(dataset, adapters, index, cfg)


# --- interference ------------------------------------------------------------


def test_interference_n1_equals_oracle_top1(dataset, train_cfg, shard_setup):
    _, adapters, index = shard_setup
    cfg = oracle_config(train_cfg)
    report = eval_system(dataset, adapters, index, cfg)
    curve = interference_sweep(dataset, adapters, cfg, [1])
    assert curve[1] == report.em


def test_interference_degrades_with_merge_count(dataset, train_cfg, shard_setup):
    _, adapters, _ = shard_setup
    cfg = oracle_config(train_cfg)
    curve = interference_sweep(dataset, adapters, cfg, [1, 3, 8])
    assert curve[3] <= curve[1] + 0.02
    assert curve[8] <= curve[1] - 0.1


def test_interference_rejects_bad_range(dataset, train_cfg, shard_setup):
    _, adapters, _ = shard_setup
    with pytest.raises(ShardError):
        interference_sweep(dataset, adapters, oracle_config(train_cfg), [0])
    with pytest.raises(ShardError):
        interference_sweep(dataset, adapters, oracle_config(train_cfg), [9])


@pytest.mark.parametrize("method", list(MergeMethod))
def test_compose_owns_its_array_and_merge_results_stay_read_only(method,
                                                                 tmp_path):
    from loramem import merge
    from loramem.adapterio import Adapter, LowRankPair
    from loramem.matcore import Matrix, Rng

    rng = Rng(23)
    adapters = [Adapter(name=f"m{i}", targets={
        multimem.TARGET_ID: LowRankPair(
            a=Matrix(rng.gaussian(4 * 64).reshape(4, 64)),
            b=Matrix(rng.gaussian(20 * 4).reshape(20, 4)),
            alpha=4.0, rank=4)}) for i in range(3)]
    spec = MergeSpec(method=method, density=0.5, drop_rate=0.3, seed=1) \
        if method.value.startswith("dare") else \
        MergeSpec(method=method, density=0.5)
    merged = merge.merge(adapters, spec)
    kept = merged.targets[multimem.TARGET_ID]
    kept_data = kept.data if isinstance(kept, Matrix) else kept.a.data
    before = kept_data.tobytes()
    adapterio.save_merged("before", merged, tmp_path / "before.lmem")

    for selection in (adapters, adapters[:1]):
        delta = multimem.compose(selection, spec)
        assert delta.flags.writeable and delta.flags.owndata
        delta += 1.0

    dense = merged.densify(multimem.TARGET_ID).data
    assert not kept_data.flags.writeable and not dense.flags.writeable
    with pytest.raises(ValueError):
        dense[0, 0] = 0.0
    assert kept_data.tobytes() == before
    adapterio.save_merged("before", merged, tmp_path / "after.lmem")
    assert (tmp_path / "after.lmem").read_bytes() == \
        (tmp_path / "before.lmem").read_bytes()
    assert multimem.compose(adapters, spec).tobytes() == dense.tobytes()
