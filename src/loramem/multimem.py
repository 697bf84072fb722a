"""End-to-end multi-module experiments: partition a dataset into contiguous
shards, train one adapter per shard against a shared frozen base, then score
routed or merged recall.

All shards train under the same config, so they share the frozen base map
and differ only through their data. Routed evaluation applies merged deltas
transiently per query; selecting a single module bypasses merging entirely,
which makes oracle top-1 evaluation exactly equivalent to per-shard
evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import adapterio, matcore, memlab, merge as merge_mod, router
from .adapterio import Adapter, LowRankPair
from .matcore import Matrix
from .memlab import D_OUT, KvDataset, MemoryModel, TrainConfig
from .merge import MergeSpec
from .router import EmbeddingIndex, PolicyKind, RoutingPolicy

TARGET_ID = "memory"


class ShardError(ValueError):
    pass


@dataclass(frozen=True)
class ShardPlan:
    """Record index -> shard id, contiguous blocks in dataset order."""

    shard_count: int
    assignment: tuple[int, ...]

    def indices_of(self, shard: int) -> list[int]:
        return [i for i, s in enumerate(self.assignment) if s == shard]


def partition(dataset: KvDataset, shard_count: int) -> ShardPlan:
    """Contiguous near-equal blocks; earlier shards take the remainder."""
    n = len(dataset)
    if shard_count < 1 or shard_count > n:
        raise ShardError(f"shard count {shard_count} out of range for {n} records")
    base, extra = divmod(n, shard_count)
    assignment = []
    for shard in range(shard_count):
        assignment.extend([shard] * (base + (1 if shard < extra else 0)))
    return ShardPlan(shard_count=shard_count, assignment=tuple(assignment))


def shard_datasets(dataset: KvDataset, plan: ShardPlan) -> list[KvDataset]:
    return [dataset.subset(plan.indices_of(s)) for s in range(plan.shard_count)]


def _shard_name(shard: int) -> str:
    return f"shard_{shard:03d}"


def memory_adapter(name: str, pair: LowRankPair, dataset: KvDataset,
                   config: TrainConfig) -> Adapter:
    """A trained memory pair as an adapter.

    Metadata carries the training seed and config, the geometry, and the
    normalized key centroid of the data the pair learned (for registry-side
    index building).
    """
    centroid = dataset.keys.data.mean(axis=0)
    norm = float(np.linalg.norm(centroid))
    return Adapter(name=name, targets={TARGET_ID: pair}, metadata={
        "seed": str(config.seed),
        "rank": str(config.rank),
        "alpha": repr(config.alpha),
        "d_in": str(dataset.d_in),
        "d_out": str(D_OUT),
        "centroid": json.dumps((centroid / norm).tolist()) if norm > 0 else "",
        "train_config": json.dumps(asdict(config), sort_keys=True),
    })


def train_shards(dataset: KvDataset, plan: ShardPlan,
                 config: TrainConfig) -> list[Adapter]:
    """One adapter per shard via the memory lab trainer.

    Shards of equal record count train as one stack, in shard order; the
    bytes equal those of training each shard alone. If shards diverge, the
    error names the lowest-index one, as a shard-by-shard loop would.
    """
    datasets = shard_datasets(dataset, plan)
    by_size: dict[int, list[int]] = {}
    for shard, shard_ds in enumerate(datasets):
        by_size.setdefault(len(shard_ds), []).append(shard)
    results = {}
    failures = []
    for shards in by_size.values():
        try:
            stacked = memlab.train_stacked([datasets[i] for i in shards],
                                           config)
        except memlab.TrainingDiverged as exc:
            failures.append((shards[exc.index], exc))
            continue
        results.update(zip(shards, stacked))
    if failures:
        shard, exc = min(failures, key=lambda f: f[0])
        raise ShardError(f"shard {shard} diverged at step {exc.step}") from exc
    return [memory_adapter(_shard_name(shard), results[shard].pair,
                           shard_ds, config)
            for shard, shard_ds in enumerate(datasets)]


def build_shard_index(dataset: KvDataset, plan: ShardPlan) -> EmbeddingIndex:
    shards = [(_shard_name(s), Matrix(dataset.keys.data[plan.indices_of(s)]))
              for s in range(plan.shard_count)]
    return router.build_index(shards)


@dataclass(frozen=True)
class SystemConfig:
    train: TrainConfig
    policy: RoutingPolicy
    merge: MergeSpec
    top_n: int = 1

    def __post_init__(self):
        if self.top_n < 1:
            raise ShardError(f"top_n must be >= 1, got {self.top_n}")


@dataclass
class SystemReport:
    em: float
    routing_accuracy: float
    per_shard_em: list[float]
    shard_count: int
    config_echo: dict = field(default_factory=dict)


def compose(adapters: list[Adapter], spec: MergeSpec) -> np.ndarray:
    """Dense delta of a module selection: one module applies its own delta;
    several are merged under `spec` and densified."""
    if len(adapters) == 1:
        return adapterio.delta(adapters[0].targets[TARGET_ID]).data
    return merge_mod.merge(adapters, spec).densify(TARGET_ID).data


def _score(dataset: KvDataset, adapters: list[Adapter], w0: np.ndarray,
           spec: MergeSpec, selections: list[list[str]]) -> float:
    """Exact-match rate when record i is answered by the composition of the
    modules in selections[i]. Merges are order independent, so the weight
    of each distinct module set is composed once, keyed by its sorted ids.
    """
    by_name = {ad.name: ad for ad in adapters}
    weights: dict[tuple[str, ...], np.ndarray] = {}
    hits = 0
    for i, chosen in enumerate(selections):
        key = tuple(sorted(chosen))
        if key not in weights:
            try:
                weights[key] = w0 + compose([by_name[m] for m in key], spec)
            except (merge_mod.MergeError, matcore.ShapeMismatchError) as exc:
                raise ShardError(
                    f"query {i}: merge of {chosen} failed: {exc}") from exc
        hits += bool(memlab.exact_match(weights[key] @ dataset.keys.data[i],
                                        dataset.labels[i]))
    return hits / len(dataset)


def eval_system(dataset: KvDataset, adapters: list[Adapter],
                index: EmbeddingIndex, config: SystemConfig) -> SystemReport:
    """Route each query, merge the selected modules, apply the merged delta
    to the shared frozen base, and score strict exact match.

    Reports overall exact match, top-1 routing accuracy, and each shard
    adapter's exact match on its own shard.
    """
    plan = partition(dataset, len(adapters))
    if config.top_n > plan.shard_count:
        raise ShardError(
            f"top_n {config.top_n} exceeds {plan.shard_count} shards")
    w0 = memlab.frozen_base(config.train.seed, dataset.d_in)
    # The system's top_n is the retrieval depth; the policy keeps its noise
    # and seed. Oracle routing always returns exactly the true module.
    policy = replace(config.policy, k=min(config.top_n, len(index))) \
        if config.policy.kind == PolicyKind.COSINE_TOP_K else config.policy
    truths = [_shard_name(shard) for shard in plan.assignment]
    routes = [router.route(index, dataset.keys.data[i], policy,
                           truth=truths[i], ordinal=i)
              for i in range(len(dataset))]
    em = _score(dataset, adapters, w0.data, config.merge,
                [[mid for mid, _ in ranked[:config.top_n]]
                 for ranked in routes])
    routing_hits = sum(ranked[0][0] == truth
                       for ranked, truth in zip(routes, truths))
    return SystemReport(
        em=em,
        routing_accuracy=routing_hits / len(dataset),
        per_shard_em=per_shard_em(dataset, plan, adapters, w0),
        shard_count=plan.shard_count,
    )


def per_shard_em(dataset: KvDataset, plan: ShardPlan,
                 adapters: list[Adapter], w0: Matrix) -> list[float]:
    """Each shard adapter scored on its own shard against the shared base."""
    scores = []
    for shard, shard_ds in enumerate(shard_datasets(dataset, plan)):
        model = MemoryModel(w0=w0, pair=adapters[shard].targets[TARGET_ID],
                            d_in=dataset.d_in)
        scores.append(memlab.evaluate(model, shard_ds))
    return scores


def interference_sweep(dataset: KvDataset, adapters: list[Adapter],
                       config: SystemConfig,
                       n_range: list[int]) -> dict[int, float]:
    """Exact match as a function of the merged module count.

    For each query, the ground-truth set is the query's own shard plus the
    next n-1 shards cyclically; routing error is excluded by construction,
    so any degradation is the merge's own doing.
    """
    plan = partition(dataset, len(adapters))
    s_count = plan.shard_count
    for n in n_range:
        if not 1 <= n <= s_count:
            raise ShardError(f"merge count {n} out of range [1, {s_count}]")
    w0 = memlab.frozen_base(config.train.seed, dataset.d_in).data
    return {n: _score(dataset, adapters, w0, config.merge,
                      [[_shard_name((shard + j) % s_count) for j in range(n)]
                       for shard in plan.assignment])
            for n in n_range}
