"""The benchmark's tracer patches program names by `owner.__dict__[attr]`,
so renaming or deleting one of them breaks every traced benchmark run. This
test installs and removes the tracer, so such a change fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Tracer, install, uninstall  # noqa: E402


def test_tracer_install_then_uninstall_restores_every_original():
    saved = install(Tracer())
    try:
        wrapped = {(owner, attr): owner.__dict__[attr]
                   for owner, attr, _ in saved}
    finally:
        uninstall(saved)
    assert saved
    for owner, attr, original in saved:
        assert wrapped[(owner, attr)] is not original, attr
        assert owner.__dict__[attr] is original, attr


def test_traced_dare_ties_compose_gives_untraced_bytes():
    from loramem import multimem
    from loramem.adapterio import Adapter, LowRankPair
    from loramem.matcore import Matrix, Rng
    from loramem.merge import MergeMethod, MergeSpec

    rng = Rng(17)
    adapters = [Adapter(name=f"m{i}", targets={multimem.TARGET_ID: LowRankPair(
        a=Matrix(rng.gaussian(4 * 64).reshape(4, 64)),
        b=Matrix(rng.gaussian(20 * 4).reshape(20, 4)), alpha=4.0, rank=4)})
        for i in range(3)]
    spec = MergeSpec(method=MergeMethod.DARE_TIES, density=0.5,
                     drop_rate=0.3, seed=2)
    untraced = multimem.compose(adapters, spec).tobytes()
    saved = install(Tracer())
    try:
        traced = multimem.compose(adapters, spec).tobytes()
    finally:
        uninstall(saved)
    assert traced == untraced


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    """A phonebook slice and its four shard adapters, one file each."""
    from loramem import adapterio, memlab, multimem
    from loramem.memlab import TrainConfig

    tmp = tmp_path_factory.mktemp("traced")
    dataset = memlab.slice_by_budget(memlab.gen_phonebook(120, seed=9), 700)
    adapters = multimem.train_shards(dataset, multimem.partition(dataset, 4),
                                     TrainConfig(rank=4, alpha=4.0, steps=200,
                                                 seed=11))
    paths = []
    for adapter in adapters:
        paths.append(tmp / f"{adapter.name}.lmem")
        adapterio.save(adapter, paths[-1])
    return dataset, paths


def _under(spans, root_name):
    """Names of the spans that have a `root_name` span among their
    ancestors."""
    by_id = {span[0]: span for span in spans}
    names = []
    for span in spans:
        parent = span[1]
        while parent in by_id:
            if by_id[parent][2] == root_name:
                names.append(span[2])
                break
            parent = by_id[parent][1]
    return names


def test_traced_registry_query_spans_route_and_merge(shard_paths):
    from loramem.servebench import AdapterRegistry

    dataset, paths = shard_paths
    registry = AdapterRegistry()
    for path in paths:
        registry.register(path)
    args = (dataset.keys.data[0].tolist(), 3,
            {"method": "ties", "density": 0.3})
    untraced = registry.query(*args)["em_logits_digest"]
    tracer = Tracer()
    saved = install(tracer)
    try:
        traced = registry.query(*args)["em_logits_digest"]
    finally:
        uninstall(saved)
    assert traced == untraced
    names = _under(tracer.spans, "servebench.query")
    assert names.count("router.route") == 1
    assert names.count("merge.merge") == 1


def test_traced_preloaded_bench_gets_the_untraced_em(shard_paths):
    from loramem import servebench
    from loramem.merge import MergeMethod, MergeSpec

    dataset, paths = shard_paths
    scenario = servebench.BenchScenario(
        mode=servebench.Mode.PRELOADED, dataset=dataset, adapter_paths=paths,
        question_count=12, top_n=3,
        merge_spec=MergeSpec(method=MergeMethod.TIES, density=0.3),
        base_seed=11)
    untraced = servebench.run_bench(scenario).em
    tracer = Tracer()
    saved = install(tracer)
    try:
        traced = servebench.run_bench(scenario).em
    finally:
        uninstall(saved)
    assert traced == untraced
    assert _under(tracer.spans, "servebench.run_bench").count(
        "router.route") == 12
