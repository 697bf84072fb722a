"""Pinned sha256 digests of non-timing outputs, across versions.

Criterion 11 compares two runs inside one process, so a rewrite that
shifts every result the same way passes it. These digests were taken from
the code as it stood before the composition paths were merged into one;
a change that claims bit-identical outputs must leave every one of them in
place. A change that moves an output on purpose re-pins the digest it moves
and says why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from loramem import adapterio, memlab, merge, multimem
from loramem.cli import main
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.servebench import AdapterRegistry, BenchScenario, Mode, run_bench

SWEEP_GRID = {"ranks": [2, 8], "loads": [16, 150], "seeds": [1, 2],
              "base": {"seed": 5}}

GOLDEN_SWEEP = {
    "results.csv": "740cabdb3884996c5c7f029c8d0080b17d8ca6ba33798f5defed2e7fe802406b",
    "efficiency.csv": "62ebc2124cfb44dec3b09e0ee0fa1c43adc60356f62abf82895753664a44e543",
}
GOLDEN_MULTI_RUN = "cdf2ee4c811693b471769e65dfa4496968709838569d17cc4c3f75deeb0de239"
GOLDEN_MERGED = {
    "linear": "a5bf0f184587e1e25af346a8042b7cf067f8156a729eb5bfe21da1520750eea5",
    "cat": "ad9507a6ffcf5160f600bcd9a4d1de0de2c0691f9c463144495f430f0f8bfeaf",
    "ties": "a48ed27d7b0841aeb397746a624cdd16ef6a575d68fc3c8a33f6c60511535951",
    "dare-linear": "c5c740860d9d05a83d938c81d38ce89cc40c2e48d2063805e9efa1c31a43c85f",
    "dare-ties": "fb6ddaebad04a5486cd0e425ac2fba9fe5af845f82b120f375513f2b0c971184",
}
GOLDEN_SHARD_FILE = "27bde24cd4cdef7db1b695e3a43a6a011c7aadf87f015c26dbcbfdd960a7b7d9"
GOLDEN_REGISTRY = {
    1: "405151eab2e99f28b30fb24bbcfd46d60e9fddd3f12e178190ca5537086651dc",
    3: "69bef30aab0e440d549ddc1d25992457262d25268a49c3ea10e6d1944a810a12",
}

# Inputs given out of name order, so the canonical ordering is exercised.
MERGE_SPECS = {
    "linear": MergeSpec(method=MergeMethod.LINEAR, weights=(0.5, 0.3, 0.2)),
    "cat": MergeSpec(method=MergeMethod.CAT),
    "ties": MergeSpec(method=MergeMethod.TIES, density=0.3),
    "dare-linear": MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=0.3,
                             seed=5),
    "dare-ties": MergeSpec(method=MergeMethod.DARE_TIES, drop_rate=0.3,
                           density=0.5, seed=5),
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    """Four shard adapters, in memory and saved one file each."""
    tmp = tmp_path_factory.mktemp("golden")
    dataset = memlab.slice_by_budget(memlab.gen_phonebook(120, seed=9), 700)
    plan = multimem.partition(dataset, 4)
    config = TrainConfig(rank=4, alpha=4.0, steps=200, seed=11)
    adapters = multimem.train_shards(dataset, plan, config)
    paths = []
    for adapter in adapters:
        path = tmp / f"{adapter.name}.lmem"
        adapterio.save(adapter, path)
        paths.append(path)
    return dataset, adapters, paths


def test_sweep_csvs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    Path("grid.json").write_text(json.dumps(SWEEP_GRID))
    assert main(["sweep", "--grid", "grid.json", "--out", "results.csv",
                 "--efficiency-out", "efficiency.csv"]) == 0
    capsys.readouterr()
    assert {name: sha256_of(name) for name in GOLDEN_SWEEP} == GOLDEN_SWEEP


def test_multi_run_report(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lab", "gen", "--pairs", "120", "--seed", "9", "--budget",
                 "700", "--out", "pb.txt"]) == 0
    assert main(["multi", "run", "--data", "pb.txt", "--shards", "4",
                 "--rank", "8", "--steps", "300", "--route", "cosine",
                 "--noise", "0.5", "--topn", "3", "--merge", "ties",
                 "--density", "0.3", "--seed", "4",
                 "--report", "report.json"]) == 0
    capsys.readouterr()
    assert sha256_of("report.json") == GOLDEN_MULTI_RUN


@pytest.mark.parametrize("method", sorted(MERGE_SPECS))
def test_save_merged_bytes(shards, tmp_path, method):
    _, adapters, _ = shards
    inputs = [adapters[2], adapters[0], adapters[1]]
    merged = merge.merge(inputs, MERGE_SPECS[method])
    out = tmp_path / "merged.lmem"
    adapterio.save_merged("merged", merged, out, metadata={"method": method})
    assert sha256_of(out) == GOLDEN_MERGED[method]


def test_shard_file_bytes(shards):
    _, _, paths = shards
    assert sha256_of(paths[0]) == GOLDEN_SHARD_FILE


def test_registry_logits_digests(shards):
    dataset, _, paths = shards
    registry = AdapterRegistry()
    for path in paths:
        registry.register(path)
    vector = dataset.keys.data[0].tolist()
    got = {top_n: registry.query(vector, top_n,
                                 {"method": "ties", "density": 0.3})
           ["em_logits_digest"] for top_n in GOLDEN_REGISTRY}
    assert got == GOLDEN_REGISTRY


# save_merged rounds to float32, which can hide float64 drift in a merge, so
# the dense float64 bytes of the merged deltas are pinned as well.
DENSE_SPECS = {
    "ties-0.3": MERGE_SPECS["ties"],
    "ties-1.0": MergeSpec(method=MergeMethod.TIES, density=1.0),
    "dare-ties": MERGE_SPECS["dare-ties"],
    "dare-linear": MERGE_SPECS["dare-linear"],
}
GOLDEN_DENSE = {
    "ties-0.3": "bb08f61d7813cc628e2914ac63dbd629196b0938708dc8c84a946fb7f5b15c2a",
    "ties-1.0": "3cd1a92b56ee102a34dd6bdfc874b730d664030dd496671311b670f0fc0827b8",
    "dare-ties": "02ccf4e2d3dd5297a95f32cf7cb4245a1b88e68b20d326234a31ee536f7256f8",
    "dare-linear": "039d025d0ea67aa491abe57c4c62dc4aef84d74965702393566aa5a0d22e73fa",
}
GOLDEN_REGISTRY_DARE_TIES = \
    "f52d2700bf73bafb61032243b9ae7e8f6a78896a5ecaf80fdfa35d7648d92ce2"
GOLDEN_INTERFERENCE = \
    "3da82b820263a1fb2f9cf6d5b81bdd8b250660245789cf0504ad6ac99075dd1a"
GOLDEN_BENCH = {
    "base": "539088ffeb6d89bd51dd066be44d9868f6f810140fd1eb3df5e7d5917b930745",
    "single": "6ae6b0207edc79672bd36360b56d4b1ca7b351e88e77925ddcb7ab74675e46aa",
    "preloaded": "b62ee66f7f321c5c4019c1e02ac254fac2beff36c92b607cf52f1395a9ba0901",
    "dynamic": "9ea17657d69b5ade898759fe03029835d4227ec13e417532dfdba0f402dbb384",
}


@pytest.mark.parametrize("label", sorted(DENSE_SPECS))
def test_merged_dense_float64_bytes(shards, label):
    _, adapters, _ = shards
    inputs = [adapters[2], adapters[0], adapters[1]]
    dense = merge.merge(inputs, DENSE_SPECS[label]) \
        .densify(multimem.TARGET_ID).data
    digest = hashlib.sha256(dense.astype("<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_DENSE[label]


def test_registry_dare_ties_digest(shards):
    dataset, _, paths = shards
    registry = AdapterRegistry()
    for path in paths:
        registry.register(path)
    vector = dataset.keys.data[0].tolist()
    reply = registry.query(vector, 3, {"method": "dare-ties", "density": 0.5,
                                       "drop_rate": 0.3, "seed": 5})
    assert reply["em_logits_digest"] == GOLDEN_REGISTRY_DARE_TIES


def _bench_digest(report) -> str:
    """sha256 of a bench report's JSON with every time taken out: its keys
    in order, the one-time stage names in order, each question's stage
    names, and the reads keyed by file name."""
    blob = report.to_json()
    blob["stages"] = [name for name, _ in blob["stages"]]
    blob["per_query"] = [sorted(q) for q in blob["per_query"]]
    blob["totals"] = sorted(blob["totals"])
    blob["read_counts"] = {Path(path).name: count
                           for path, count in blob["read_counts"].items()}
    return hashlib.sha256(json.dumps(blob).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", [m.value for m in Mode])
def test_bench_report_non_timing_digest(shards, mode):
    dataset, _, paths = shards
    report = run_bench(BenchScenario(
        mode=Mode(mode), dataset=dataset, adapter_paths=list(paths),
        single_adapter_path=paths[0], top_n=2,
        merge_spec=MERGE_SPECS["ties"], base_seed=11))
    assert _bench_digest(report) == GOLDEN_BENCH[mode]


def test_multi_interference_report(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lab", "gen", "--pairs", "120", "--seed", "9", "--budget",
                 "700", "--out", "pb.txt"]) == 0
    assert main(["multi", "interference", "--data", "pb.txt", "--shards", "4",
                 "--n-range", "1,2,3,4", "--rank", "8", "--steps", "300",
                 "--merge", "ties", "--density", "0.3", "--seed", "4",
                 "--report", "report.json"]) == 0
    capsys.readouterr()
    assert sha256_of("report.json") == GOLDEN_INTERFERENCE


# Training pinned in float64: every shard's factors and per-step losses, for
# equal shards, unequal full-batch shards and unequal mini-batch shards, so a
# change to how shards are batched together cannot move a single bit.
SHARD_TRAINING = {
    "equal-full-batch": (120, 700, 8, TrainConfig(rank=8, alpha=8.0,
                                                  steps=300, seed=4)),
    "unequal-full-batch": (200, 1800, 64, TrainConfig(rank=8, alpha=8.0,
                                                      steps=75, seed=6)),
    "unequal-mini-batch": (120, 770, 4, TrainConfig(rank=4, alpha=4.0,
                                                    steps=200, seed=2)),
}
GOLDEN_SHARD_TRAINING = {
    "equal-full-batch":
        "c0bec10f8ca3187a1724320f4f80ef77bbfe64d64623246812953d40106d93f7",
    "unequal-full-batch":
        "10c99c5b5c4d4d3fe12f15c2128713bcb8c18aa99acb2d490a63c163ce538374",
    "unequal-mini-batch":
        "58f258f8f2d0586aa5cab13d1722896f19136fc8bc388c0707e6d755e1846eda",
}
GOLDEN_TRAIN_RANK32 = \
    "dac7a97cc5fec418c0d8d51a42c9e8127b1b80c662d4a1a900549cb7ae53104e"
GOLDEN_LAB_TRAIN = {
    "report": "e5d07875fa41ffb32ff59aac954ece5599134102a54208dcebf5aa378d06c79a",
    "adapter": "d54810360bbbe4bd2150ecc46c3170f92e2e3d822220da2829f053b6dc94a52b",
}


def _training_digest(hasher, pair, losses) -> None:
    hasher.update(pair.a.data.astype("<f8").tobytes())
    hasher.update(pair.b.data.astype("<f8").tobytes())
    hasher.update(np.asarray(losses, dtype="<f8").tobytes())


@pytest.mark.parametrize("label", sorted(SHARD_TRAINING))
def test_shard_training_float64_bytes(label):
    pairs, budget, shard_count, config = SHARD_TRAINING[label]
    dataset = memlab.slice_by_budget(memlab.gen_phonebook(pairs, seed=9),
                                     budget)
    plan = multimem.partition(dataset, shard_count)
    adapters = multimem.train_shards(dataset, plan, config)
    # Adapters do not keep their per-step losses, so those come from
    # training each shard on its own, which must also give the same factors.
    hasher = hashlib.sha256()
    for adapter, shard_ds in zip(adapters,
                                 multimem.shard_datasets(dataset, plan),
                                 strict=True):
        alone = memlab.train(shard_ds, config)
        pair = adapter.targets[multimem.TARGET_ID]
        assert pair.a == alone.pair.a and pair.b == alone.pair.b
        _training_digest(hasher, pair, alone.losses)
    assert hasher.hexdigest() == GOLDEN_SHARD_TRAINING[label]


def test_mini_batch_train_rank32_float64_bytes():
    dataset = memlab.slice_by_budget(memlab.gen_phonebook(700, seed=13), 6200)
    result = memlab.train(dataset, TrainConfig(rank=32, alpha=32.0,
                                               steps=600, seed=8))
    hasher = hashlib.sha256()
    _training_digest(hasher, result.pair, result.losses)
    assert hasher.hexdigest() == GOLDEN_TRAIN_RANK32


def test_lab_train_report(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lab", "gen", "--pairs", "120", "--seed", "9", "--budget",
                 "700", "--out", "pb.txt"]) == 0
    capsys.readouterr()
    assert main(["lab", "train", "--data", "pb.txt", "--rank", "4",
                 "--steps", "300", "--seed", "3", "--out", "mem.lmem"]) == 0
    report = capsys.readouterr().out
    got = {"report": hashlib.sha256(report.encode("utf-8")).hexdigest(),
           "adapter": sha256_of("mem.lmem")}
    assert got == GOLDEN_LAB_TRAIN


# Merges of two and of four adapters, pinned in float64 before the merge
# kept its working buffers across calls: the k = 3 digests above never make
# those buffers grow or reuse only part of them.
WIDE_MERGES = {
    "ties-k2": ((3, 0), MergeSpec(method=MergeMethod.TIES, density=0.3)),
    "ties-k4": ((2, 0, 3, 1), MergeSpec(method=MergeMethod.TIES,
                                        density=0.3)),
    "ties-k4-weighted": ((2, 0, 3, 1), MergeSpec(
        method=MergeMethod.TIES, weights=(0.4, 0.1, 0.3, 0.2), density=0.5)),
    "dare-ties-k2": ((1, 2), MergeSpec(method=MergeMethod.DARE_TIES,
                                       drop_rate=0.3, density=0.5, seed=5)),
    "dare-ties-k4": ((3, 1, 2, 0), MergeSpec(
        method=MergeMethod.DARE_TIES, drop_rate=0.3, density=0.5, seed=5)),
}
GOLDEN_WIDE = {
    "ties-k2":
        "39780f713c9dab1cbd1c68a489b98f5ae655ceb233bd1f65b45825d67e15e4d1",
    "ties-k4":
        "999fd85d43f8f04a26228be8696d567df8c8bf9e98d89a197f330583e1551ebb",
    "ties-k4-weighted":
        "6f7c2aaed12790e5482e6447b9e1544747edddd7981fc7ac46ef93815b9aaecd",
    "dare-ties-k2":
        "89716ce4905391e8463ce21328febedebaac71addbf26fede71ca16ccc79b11f",
    "dare-ties-k4":
        "5bf7d1f01cd2ada6dbb86916d64be465dacca703b654c1808c7f7ce514b50315",
}
GOLDEN_WIDE_SEQUENCE = \
    "3606c70ddb9a46848f5fd4e0d144800882cdfe1d580ae6b9f96293c53d57ff37"


def _dense_digest(hasher, merged) -> None:
    hasher.update(merged.densify(multimem.TARGET_ID).data
                  .astype("<f8").tobytes())


@pytest.mark.parametrize("label", sorted(WIDE_MERGES))
def test_wide_merge_float64_bytes(shards, label):
    _, adapters, _ = shards
    order, spec = WIDE_MERGES[label]
    hasher = hashlib.sha256()
    _dense_digest(hasher, merge.merge([adapters[i] for i in order], spec))
    assert hasher.hexdigest() == GOLDEN_WIDE[label]


def test_merge_sequence_four_two_four_float64_bytes(shards):
    """Four adapters, then two, four, two and four again, in one process."""
    _, adapters, _ = shards
    hasher = hashlib.sha256()
    for label in ("ties-k4", "dare-ties-k2", "dare-ties-k4", "ties-k2",
                  "ties-k4-weighted"):
        order, spec = WIDE_MERGES[label]
        _dense_digest(hasher, merge.merge([adapters[i] for i in order], spec))
    assert hasher.hexdigest() == GOLDEN_WIDE_SEQUENCE
