import json
import socket
import statistics
import struct
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from loramem import adapterio, memlab, multimem, router
from loramem.matcore import Matrix
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.router import EmbeddingIndex
from loramem.servebench import (
    MAX_REQUEST_LINE, STAGE_NAMES, AdapterRegistry, BenchError, BenchScenario,
    DuplicateAdapterError, Mode, RegistryServer, ServeConfig, request_line,
    run_bench, serve_in_thread,
)
from loramem.servebench import BadRequest, _centroid_index, _Handler


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """Dataset, shard adapter files, and a whole-set single adapter."""
    tmp = tmp_path_factory.mktemp("bench")
    records = memlab.gen_phonebook(120, seed=9)
    dataset = memlab.slice_by_budget(records, 700)
    cfg = TrainConfig(rank=8, alpha=8.0, learning_rate=0.5, steps=500,
                      batch_size=8, seed=7)
    plan = multimem.partition(dataset, 8)
    adapters = multimem.train_shards(dataset, plan, cfg)
    paths = []
    for ad in adapters:
        p = tmp / f"{ad.name}.lmem"
        adapterio.save(ad, p)
        paths.append(p)
    result = memlab.train(dataset, cfg)
    centroid = dataset.keys.data.mean(axis=0)
    centroid = centroid / np.linalg.norm(centroid)
    single = adapterio.Adapter(
        name="single", targets={"memory": result.pair},
        metadata={"seed": str(cfg.seed), "d_in": str(dataset.d_in),
                  "centroid": json.dumps(centroid.tolist())})
    single_path = tmp / "single.lmem"
    adapterio.save(single, single_path)
    return dataset, paths, single_path, cfg


def scenario(assets, mode: Mode, questions: int = 30) -> BenchScenario:
    dataset, paths, single_path, cfg = assets
    return BenchScenario(
        mode=mode, dataset=dataset, adapter_paths=list(paths),
        single_adapter_path=single_path, question_count=questions,
        top_n=3, merge_spec=MergeSpec(method=MergeMethod.TIES, density=0.3),
        base_seed=cfg.seed)


def stage_set(report) -> set:
    names = {name for name, _ in report.stages}
    for q in report.per_query:
        names.update(q)
    return names


def test_base_mode_stage_set_exact(assets):
    report = run_bench(scenario(assets, Mode.BASE_ONLY))
    assert stage_set(report) == {"model_loading", "tokenization", "inference"}
    assert report.read_counts == {}


def test_single_mode_stages_and_one_read(assets):
    report = run_bench(scenario(assets, Mode.SINGLE_ADAPTER))
    assert stage_set(report) == {"model_loading", "lora_loading",
                                 "lora_activation", "tokenization",
                                 "inference"}
    assert list(report.read_counts.values()) == [1]


def test_stage_vocabulary_closed(assets):
    for mode in Mode:
        report = run_bench(scenario(assets, mode, questions=5))
        assert stage_set(report) <= set(STAGE_NAMES)


def test_totals_are_one_time_plus_per_query_sums(assets):
    report = run_bench(scenario(assets, Mode.PRELOADED, questions=10))
    recomputed = {}
    for name, ms in report.stages:
        recomputed[name] = recomputed.get(name, 0.0) + ms
    for q in report.per_query:
        for name, ms in q.items():
            recomputed[name] = recomputed.get(name, 0.0) + ms
    assert set(recomputed) == set(report.totals)
    for name in recomputed:
        assert report.totals[name] == pytest.approx(recomputed[name])


def test_preloaded_reads_each_file_exactly_once(assets):
    report = run_bench(scenario(assets, Mode.PRELOADED))
    assert sorted(report.read_counts.values()) == [1] * 8


def test_dynamic_rereads_per_question(assets):
    report = run_bench(scenario(assets, Mode.DYNAMIC, questions=10))
    # header read at setup plus per-question payload reads
    assert sum(report.read_counts.values()) >= 8 + 10 * 3


def test_dynamic_loading_dominates_preloaded(assets):
    dyn, pre = [], []
    for _ in range(3):
        dyn.append(run_bench(scenario(assets, Mode.DYNAMIC))
                   .totals.get("lora_loading", 0.0))
        pre_report = run_bench(scenario(assets, Mode.PRELOADED))
        assert pre_report.totals.get("lora_loading", 0.0) == 0.0
        pre.append(pre_report.totals["all_lora_loading"])
    assert statistics.median(dyn) >= 0.0
    assert statistics.median(dyn) >= statistics.median(pre)


def test_question_count_validation(assets):
    with pytest.raises(BenchError):
        scenario(assets, Mode.BASE_ONLY, questions=0)


def test_missing_adapter_file_raises(assets):
    dataset, paths, single_path, cfg = assets
    scen = scenario(assets, Mode.DYNAMIC)
    scen.adapter_paths = [paths[0].with_name("ghost.lmem")]
    with pytest.raises(OSError):
        run_bench(scen)


def test_report_json_shape(assets):
    report = run_bench(scenario(assets, Mode.DYNAMIC, questions=3))
    blob = report.to_json()
    assert blob["mode"] == "dynamic"
    assert blob["question_count"] == 3
    assert len(blob["per_query"]) == 3
    json.dumps(blob)  # serializable


def test_recall_quality_by_mode(assets):
    base = run_bench(scenario(assets, Mode.BASE_ONLY))
    routed = run_bench(scenario(assets, Mode.PRELOADED))
    assert base.em == 0.0
    assert routed.em >= 0.8


# --- registry service --------------------------------------------------------


@pytest.fixture(scope="module")
def server(assets):
    srv, thread = serve_in_thread(ServeConfig(port=0))
    yield srv, assets
    srv.shutdown()
    srv.server_close()


def test_register_increments_stats(server):
    srv, (dataset, paths, single_path, cfg) = server
    before = request_line("127.0.0.1", srv.port, {"op": "stats"})
    reply = request_line("127.0.0.1", srv.port,
                         {"op": "register", "path": str(paths[0])})
    assert reply["ok"] and reply["adapters"] == before["adapters"] + 1
    for p in paths[1:]:
        request_line("127.0.0.1", srv.port, {"op": "register", "path": str(p)})
    after = request_line("127.0.0.1", srv.port, {"op": "stats"})
    assert after["adapters"] == len(paths)


def test_query_routes_to_exact_centroid(server):
    srv, (dataset, paths, single_path, cfg) = server
    header = adapterio.inspect_header(paths[2])
    centroid = json.loads(header["metadata"]["centroid"])
    reply = request_line("127.0.0.1", srv.port, {
        "op": "query", "vector": centroid, "top_n": 1,
        "merge": {"method": "ties", "density": 0.3}})
    assert reply["ok"]
    assert reply["route"][0][0] == header["name"]
    assert set(reply["stage_times"]) <= set(STAGE_NAMES)


def test_identical_queries_identical_results(server):
    srv, (dataset, paths, single_path, cfg) = server
    q = {"op": "query", "vector": dataset.keys.data[0].tolist(),
         "top_n": 3, "merge": {"method": "ties", "density": 0.3}}
    r1 = request_line("127.0.0.1", srv.port, q)
    r2 = request_line("127.0.0.1", srv.port, q)
    assert r1["em_logits_digest"] == r2["em_logits_digest"]
    assert r1["route"] == r2["route"]


def test_malformed_request_keeps_connection_open(server):
    srv, _ = server
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall(b"this is not json\n")
        assert json.loads(fh.readline())["error"]["code"] == "bad_json"
        conn.sendall(b'{"op": "wat"}\n')
        assert json.loads(fh.readline())["error"]["code"] == "unknown_op"
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


def test_non_object_merge_is_bad_request_and_connection_stays_open(server):
    srv, (dataset, paths, single_path, cfg) = server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 3, "merge": "ties"}
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps(query) + "\n").encode())
        assert json.loads(fh.readline())["error"]["code"] == "bad_request"
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_query_vector_is_rejected(assets, bad):
    dataset, paths, single_path, cfg = assets
    registry = AdapterRegistry()
    registry.register(paths[0])
    vector = dataset.keys.data[0].tolist()
    vector[3] = bad
    with pytest.raises(BenchError, match="NaN or Inf"):
        registry.query(vector, 1, None)


def test_register_non_object_header_keeps_connection_open(server, tmp_path):
    srv, _ = server
    path = tmp_path / "list_header.lmem"
    raw = b"[1,2]"
    path.write_bytes(struct.pack("<4sIQ", b"LMEM", 1, len(raw)) + raw)
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps({"op": "register", "path": str(path)})
                      + "\n").encode())
        assert json.loads(fh.readline())["error"]["code"] == "FormatError"
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


def test_register_non_string_path_is_bad_request(assets):
    # an integer path would reach open() as a file descriptor; the
    # listening socket's own descriptor is the one that used to get closed
    srv, _ = serve_in_thread(ServeConfig(port=0))
    try:
        request = {"op": "register", "path": srv.fileno()}
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as conn:
            fh = conn.makefile("r", encoding="utf-8")
            conn.sendall((json.dumps(request) + "\n").encode())
            assert json.loads(fh.readline())["error"]["code"] == "bad_request"
            conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
            assert json.loads(fh.readline())["ok"]
        assert request_line("127.0.0.1", srv.port, {"op": "stats"},
                            timeout=5)["ok"]
    finally:
        srv.shutdown()
        srv.server_close()


def test_unknown_module_id_is_error_reply(server):
    srv, (dataset, paths, single_path, cfg) = server
    reply = request_line("127.0.0.1", srv.port, {
        "op": "query", "vector": dataset.keys.data[0].tolist(),
        "modules": ["ghost"]})
    assert "error" in reply and "ghost" in reply["error"]["message"]


def test_register_unreadable_path_is_error_reply(server):
    srv, _ = server
    reply = request_line("127.0.0.1", srv.port,
                         {"op": "register", "path": "/nonexistent.lmem"})
    assert "error" in reply


def test_concurrent_identical_queries_identical_results(server):
    srv, (dataset, paths, single_path, cfg) = server
    q = {"op": "query", "vector": dataset.keys.data[5].tolist(),
         "top_n": 3, "merge": {"method": "ties", "density": 0.3}}
    results = []
    lock = threading.Lock()

    def worker():
        reply = request_line("127.0.0.1", srv.port, q)
        with lock:
            results.append(reply)

    threads = [threading.Thread(target=worker) for _ in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 32
    assert len({r["em_logits_digest"] for r in results}) == 1
    assert len({json.dumps(r["route"]) for r in results}) == 1


def test_serve_config_autoloads_directory(assets, tmp_path):
    dataset, paths, single_path, cfg = assets
    srv = RegistryServer(ServeConfig(port=0, adapter_dir=paths[0].parent))
    try:
        # shard files plus the single adapter
        assert srv.registry.stats()["adapters"] == 9
    finally:
        srv.server_close()


# --- registry write path and boundaries ---------------------------------------

POOL_D_IN = 16
POOL_SIZE = 70


def _pool_adapter(name: str, rng: np.random.Generator, centroid,
                  d_out: int = memlab.D_OUT, d_in: int = POOL_D_IN,
                  target: str = "memory") -> adapterio.Adapter:
    pair = adapterio.LowRankPair(
        a=Matrix(rng.normal(size=(2, d_in))),
        b=Matrix(rng.normal(size=(d_out, 2))), alpha=2.0, rank=2)
    return adapterio.Adapter(
        name=name, targets={target: pair},
        metadata={"seed": "3", "d_in": str(POOL_D_IN),
                  "centroid": json.dumps(list(centroid))})


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """70 small adapter files with shuffled names, and query vectors. Some
    adapters share a centroid, so their cosine scores tie exactly."""
    tmp = tmp_path_factory.mktemp("pool")
    rng = np.random.default_rng(11)
    centroids = rng.normal(size=(45, POOL_D_IN))
    names = [f"ad{n:03d}" for n in rng.permutation(POOL_SIZE)]
    paths = []
    for i, name in enumerate(names):
        path = tmp / f"{i:02d}.lmem"
        adapterio.save(_pool_adapter(name, rng, centroids[i % 45]), path)
        paths.append(path)
    queries = np.vstack([centroids[:10], rng.normal(size=(20, POOL_D_IN))])
    return paths, queries


def _rebuilt_index(state) -> EmbeddingIndex:
    """The whole index rebuilt from every adapter in sorted-name order, as
    every register used to do."""
    return router.build_index([
        (name, Matrix(np.asarray(json.loads(
            state.adapters[name].metadata["centroid"])).reshape(1, -1)))
        for name in sorted(state.adapters)])


_MERGES = [None, {"method": "ties", "density": 0.3},
           {"method": "dare-ties", "drop_rate": 0.5, "seed": 4},
           {"method": "linear"}, {"method": "cat"}]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_inserted_row_index_equals_a_full_rebuild(pool, data):
    paths, queries = pool
    order = data.draw(st.permutations(range(POOL_SIZE)))
    count = data.draw(st.integers(1, POOL_SIZE))
    registry = AdapterRegistry()
    for n, i in enumerate(order[:count], start=1):
        assert registry.register(paths[i]) == n
        state = registry.snapshot()
        rebuilt = _rebuilt_index(state)
        # the same rows in the same order: a row's score bits depend on
        # its position in the BLAS matrix-vector product
        assert state.index.ids == rebuilt.ids
        assert state.index.vectors.data.tobytes() == \
            rebuilt.vectors.data.tobytes()
    reference = AdapterRegistry()
    reference._state = replace(state, index=rebuilt)
    for _ in range(5):
        vector = queries[data.draw(st.integers(0, len(queries) - 1))]
        top_n = data.draw(st.integers(1, 4))
        merge = data.draw(st.sampled_from(_MERGES))
        got = registry.query(vector.tolist(), top_n, merge)
        want = reference.query(vector.tolist(), top_n, merge)
        assert json.dumps(got["route"]) == json.dumps(want["route"])
        assert got["em_logits_digest"] == want["em_logits_digest"]


def test_register_decodes_only_the_new_centroid(pool, monkeypatch):
    paths, _ = pool
    registry = AdapterRegistry()
    for path in paths[:64]:
        registry.register(path)
    centroids = {adapterio.inspect_header(p)["metadata"]["centroid"]
                 for p in paths[:65]}
    decoded = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        if s in centroids:
            decoded.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert registry.register(paths[64]) == 65
    new = adapterio.inspect_header(paths[64])["metadata"]["centroid"]
    assert decoded == [new]


def _assert_still_serving(registry, queries, adapters: int) -> None:
    assert registry.stats()["adapters"] == adapters
    reply = registry.query(queries[0].tolist(), 2, None)
    assert len(reply["route"]) == 2


def test_register_rejects_a_registered_name(pool):
    paths, queries = pool
    registry = AdapterRegistry()
    registry.register(paths[0])
    registry.register(paths[1])
    before = registry.snapshot()
    with pytest.raises(DuplicateAdapterError, match="already registered"):
        registry.register(paths[0])
    assert registry.snapshot() is before
    _assert_still_serving(registry, queries, 2)


@pytest.mark.parametrize("bad, message", [
    ({"target": "other"}, "no 'memory' target"),
    ({"d_out": 50}, r"50x16, expected 100x16"),
    ({"d_in": 8}, r"100x8, expected 100x16"),
    ({"centroid": [1.0] * 8}, "centroid has length 8, expected d_in=16"),
])
def test_register_rejects_an_adapter_no_query_could_use(pool, tmp_path, bad,
                                                        message):
    paths, queries = pool
    registry = AdapterRegistry()
    registry.register(paths[0])
    registry.register(paths[1])
    centroid = bad.pop("centroid", [1.0] * POOL_D_IN)
    path = tmp_path / "bad.lmem"
    adapterio.save(_pool_adapter("bad", np.random.default_rng(0), centroid,
                                 **bad), path)
    with pytest.raises(BenchError, match=message):
        registry.register(path)
    _assert_still_serving(registry, queries, 2)


def _odd_register(tmp_path, metadata: dict, d_in: int = POOL_D_IN) -> dict:
    """A register request for adapter "odd", its metadata updated by
    `metadata`, a key whose value is None taken out."""
    adapter = _pool_adapter("odd", np.random.default_rng(0), [1.0] * d_in,
                            d_in=d_in)
    adapter.metadata = {key: value for key, value in
                        {**adapter.metadata, **metadata}.items()
                        if value is not None}
    adapterio.save(adapter, tmp_path / "odd.lmem")
    return {"op": "register", "path": str(tmp_path / "odd.lmem")}


@pytest.mark.parametrize("key, raw", [
    ("seed", "abc"), ("seed", "1.0"), ("d_in", "x"), ("centroid", "{}"),
    ("centroid", '"s"'), ("centroid", "[1,"),
    ("centroid", json.dumps([True] + [1.0] * (POOL_D_IN - 1))),
    ("centroid", "[" + "9" * 400 + "]"), ("centroid", "[" * 100_000),
], ids=["seed-word", "seed-float", "d_in-word", "centroid-object",
        "centroid-string", "centroid-cut", "centroid-bool", "centroid-huge",
        "centroid-deep"])
def test_malformed_metadata_is_a_bench_error_naming_adapter_and_key(
        tmp_path, key, raw):
    request = _odd_register(tmp_path, {key: raw})
    error = _Handler._dispatch(AdapterRegistry(), json.dumps(request))["error"]
    assert error["code"] == "BenchError"
    assert error["message"].startswith(f"adapter 'odd' metadata: {key} ")
    metadata = adapterio.inspect_header(request["path"])["metadata"]
    with pytest.raises(BenchError, match=f"adapter 'odd' metadata: {key} "):
        _centroid_index([("odd", metadata)])


@pytest.mark.parametrize("registered, request_of, code, message", [
    (0, lambda q, tmp: {"op": "query", "vector": q}, "BenchError",
     "no adapters registered"),
    (2, lambda q, tmp: {"op": "query", "vector": q[:3]}, "BenchError",
     "query dimension 3 != registry d_in 16"),
    (2, lambda q, tmp: _odd_register(tmp, {"seed": "4"}), "BenchError",
     "(seed=4, d_in=16) disagrees with registry (seed=3, d_in=16)"),
    (2, lambda q, tmp: _odd_register(tmp, {"d_in": "8"}, d_in=8),
     "BenchError", "(seed=3, d_in=8) disagrees with registry"),
    (0, lambda q, tmp: _odd_register(tmp, {"centroid": None}), "BenchError",
     "adapter 'odd' metadata: centroid is required"),
    (0, lambda q, tmp: [1, 2], "bad_request",
     "request must be a JSON object"),
], ids=["no-adapters", "short-vector", "seed-disagrees", "d_in-disagrees",
        "no-centroid", "non-object"])
def test_registry_error_paths_reply_with_their_codes(
        pool, tmp_path, registered, request_of, code, message):
    paths, queries = pool
    registry = AdapterRegistry()
    for path in paths[:registered]:
        registry.register(path)
    request = request_of(queries[0].tolist(), tmp_path)
    error = _Handler._dispatch(registry, json.dumps(request))["error"]
    assert error["code"] == code and message in error["message"]
    assert registry.stats()["adapters"] == registered


def test_error_replies_keep_the_connection_open(pool, tmp_path):
    paths, queries = pool
    overflowing = _odd_register(tmp_path, {"centroid": "[" + "9" * 400 + "]"})
    srv, _ = serve_in_thread(ServeConfig(port=0))
    try:
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as conn:
            fh = conn.makefile("r", encoding="utf-8")
            for request, code in (
                    ([1, 2], "bad_request"),
                    ({"op": "query", "vector": queries[0].tolist()},
                     "BenchError"),
                    (overflowing, "BenchError")):
                conn.sendall((json.dumps(request) + "\n").encode())
                assert json.loads(fh.readline())["error"]["code"] == code
            conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
            assert json.loads(fh.readline())["adapters"] == 0
    finally:
        srv.shutdown()
        srv.server_close()


def test_duplicate_register_is_typed_error_and_connection_stays_open(pool):
    paths, _ = pool
    srv, _ = serve_in_thread(ServeConfig(port=0))
    try:
        request = {"op": "register", "path": str(paths[0])}
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as conn:
            fh = conn.makefile("r", encoding="utf-8")
            conn.sendall((json.dumps(request) + "\n").encode())
            assert json.loads(fh.readline()) == {"ok": True, "adapters": 1}
            conn.sendall((json.dumps(request) + "\n").encode())
            error = json.loads(fh.readline())["error"]
            assert error["code"] == "DuplicateAdapterError"
            conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
            assert json.loads(fh.readline())["adapters"] == 1
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture
def loaded_server(assets):
    """A fresh server preloaded with the shard and single adapters."""
    dataset, paths, single_path, cfg = assets
    srv, _ = serve_in_thread(ServeConfig(port=0, adapter_dir=paths[0].parent))
    yield srv, dataset
    srv.shutdown()
    srv.server_close()


@pytest.mark.parametrize("field", ["top_n", "seed"])
def test_number_too_large_is_bad_request_and_connection_stays_open(
        loaded_server, field):
    srv, dataset = loaded_server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 3, "merge": {"method": "dare-ties", "drop_rate": 0.5}}
    if field == "top_n":
        query["top_n"] = "HUGE"
    else:
        query["merge"]["seed"] = "HUGE"
    # JSON reads 1e400 as inf, which int() cannot convert
    line = json.dumps(query).replace('"HUGE"', "1e400") + "\n"
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall(line.encode())
        assert json.loads(fh.readline())["error"]["code"] == "bad_request"
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


@pytest.mark.parametrize("field, value", [
    ("top_n", 2.7), ("top_n", True), ("top_n", "2"), ("top_n", 0),
    ("modules", ["shard_000", "shard_000"]), ("modules", "shard_000"),
    ("modules", []), ("modules", [0]),
    ("merge.density", "0.3"), ("merge.density", True),
    ("merge.drop_rate", "0.5"), ("merge.seed", True), ("merge.seed", 1.5),
    ("merge.weights", "ab"), ("merge.weights", [True, False]),
    ("merge.method", 5), ("merge.method", None),
    ("vector", ["0.5"] * memlab.D_IN_DEFAULT),
    ("vector", [True] * memlab.D_IN_DEFAULT),
    ("vector", [[0.5] * memlab.D_IN_DEFAULT]), ("vector", "abc"),
    ("vector", None),
])
def test_mistyped_query_field_is_bad_request(loaded_server, field, value):
    srv, dataset = loaded_server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 2, "merge": {"method": "dare-ties", "density": 0.5,
                                   "drop_rate": 0.5}}
    if field.startswith("merge."):
        query["merge"][field.split(".")[1]] = value
    else:
        query[field] = value
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps(query) + "\n").encode())
        error = json.loads(fh.readline())["error"]
        assert error["code"] == "bad_request"
        assert field.split(".")[-1] in error["message"]
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


def test_absent_required_field_is_bad_request_naming_it(server):
    srv, _ = server
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        for request, name in [({"op": "query", "top_n": 1}, "vector"),
                              ({"op": "register"}, "path")]:
            conn.sendall((json.dumps(request) + "\n").encode())
            error = json.loads(fh.readline())["error"]
            assert error == {"code": "bad_request",
                             "message": f"{name} is required"}
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


def test_null_merge_is_the_default_merge(loaded_server):
    srv, dataset = loaded_server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 3}
    absent = request_line("127.0.0.1", srv.port, query)
    null = request_line("127.0.0.1", srv.port, {**query, "merge": None})
    assert null["em_logits_digest"] == absent["em_logits_digest"]
    assert null["route"] == absent["route"]


def test_top_n_beyond_the_adapter_count_routes_to_every_adapter(
        loaded_server):
    srv, dataset = loaded_server
    reply = request_line("127.0.0.1", srv.port, {
        "op": "query", "vector": dataset.keys.data[0].tolist(), "top_n": 50,
        "merge": {"method": "linear"}})
    assert len(reply["route"]) == 9


@pytest.mark.parametrize("length, code", [
    (MAX_REQUEST_LINE, None),                 # newline included: at the cap
    (MAX_REQUEST_LINE + 1, "line_too_long"),
    (3 * MAX_REQUEST_LINE + 5, "line_too_long"),
])
def test_request_line_cap(loaded_server, length, code):
    srv, _ = loaded_server
    stats = b'{"op": "stats"}'
    line = stats + b" " * (length - len(stats) - 1) + b"\n"
    assert len(line) == length
    with socket.create_connection(("127.0.0.1", srv.port), timeout=30) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall(line)
        reply = json.loads(fh.readline())
        if code is None:
            assert reply["ok"]
        else:
            assert reply["error"]["code"] == code
        # one reply per line: the next reply answers the next request
        conn.sendall(stats + b"\n")
        assert json.loads(fh.readline())["adapters"] == 9


@pytest.mark.parametrize("field, value", [
    ("method", "bogus"), ("method", ["ties"]), ("density", 0),
    ("density", 1.5), ("drop_rate", 1.0), ("drop_rate", -0.1),
])
def test_merge_field_out_of_range_is_bad_request_naming_it(
        loaded_server, field, value):
    srv, dataset = loaded_server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 3, "merge": {"method": "dare-ties", field: value}}
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps(query) + "\n").encode())
        error = json.loads(fh.readline())["error"]
        assert error["code"] == "bad_request"
        assert field in error["message"]
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


@pytest.mark.parametrize("vector", [
    lambda v: [str(x) for x in v], lambda v: [v], lambda v: [True] * len(v),
    lambda v: [v[:2], v[2:3]], lambda v: "abc", lambda v: [None] * len(v),
    lambda v: [10**400] + v[1:],
])
def test_in_process_query_vector_must_be_flat_numbers(assets, vector):
    dataset, paths, single_path, cfg = assets
    registry = AdapterRegistry()
    registry.register(paths[0])
    with pytest.raises(BenchError, match="1-D list of numbers"):
        registry.query(vector(dataset.keys.data[0].tolist()), 1, None)


@pytest.mark.parametrize("args, names", [
    ((0, None), ["top_n"]), ((True, None), ["top_n"]),
    ((2, None, ["shard_000"]), ["modules", "top_n"]),
    ((None, None, "shard_000"), ["modules"]),
    ((None, "ties"), ["merge"]),
    ((2, {"method": "linear", "weights": [10**400, 1]}), ["weights"]),
    ((None, {"density": 10**400}), ["density"]),
    ((None, {"drop_rate": 10**400}), ["drop_rate"]),
])
def test_in_process_query_meets_the_socket_rules(assets, args, names):
    dataset, paths, single_path, cfg = assets
    registry = AdapterRegistry()
    registry.register(paths[0])
    with pytest.raises(BadRequest) as caught:
        registry.query(dataset.keys.data[0].tolist(), *args)
    assert all(name in str(caught.value) for name in names)


@pytest.mark.parametrize("request_, key", [
    ({"op": "query", "top_n": 2, "topn": 3}, "topn"),
    ({"op": "query", "top_n": 3, "merge": {"method": "ties",
                                           "desnity": 0.3}}, "desnity"),
    ({"op": "register", "force": True}, "force"),
    ({"op": "stats", "verbose": 1}, "verbose"),
])
def test_unknown_key_is_bad_request_naming_it(assets, loaded_server,
                                              request_, key):
    srv, dataset = loaded_server
    if request_["op"] == "query":
        request_ = {**request_, "vector": dataset.keys.data[0].tolist()}
    if request_["op"] == "register":
        request_ = {**request_, "path": str(assets[1][0])}
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps(request_) + "\n").encode())
        error = json.loads(fh.readline())["error"]
        assert error["code"] == "bad_request"
        assert repr(key) in error["message"]
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["adapters"] == 9


@pytest.mark.parametrize("weights", [
    [0.5, 0.5], [1.5, -0.25, -0.25], [0.2, 0.2, 0.2],
    [0.5, 0.5, float("nan")], [float("nan")] * 3, [],
])
def test_weights_that_do_not_fit_the_route_are_bad_request(loaded_server,
                                                          weights):
    srv, dataset = loaded_server
    reply = request_line("127.0.0.1", srv.port, {
        "op": "query", "vector": dataset.keys.data[0].tolist(), "top_n": 3,
        "merge": {"method": "linear", "weights": weights}})
    assert reply["error"]["code"] == "bad_request"
    assert "weights" in reply["error"]["message"]


@pytest.mark.parametrize("entry", [1e158, 1e307])
def test_query_whose_norm_overflows_is_rejected_without_warning(assets,
                                                               entry):
    dataset, paths, single_path, cfg = assets
    registry = AdapterRegistry()
    for path in paths:
        registry.register(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BenchError, match="norm"):
            registry.query([entry] * dataset.d_in, 3, None)


def test_query_whose_logits_overflow_is_rejected_without_warning(assets,
                                                                tmp_path):
    dataset, paths, single_path, cfg = assets
    # alpha 1e200 makes a finite delta of about 1e200, and a query of norm
    # about 1e121 takes its logits past float64
    rank = 1
    huge = adapterio.Adapter(
        name="huge", targets={"memory": adapterio.LowRankPair(
            a=Matrix(np.ones((rank, dataset.d_in))),
            b=Matrix(np.ones((memlab.D_OUT, rank))), alpha=1e200,
            rank=rank)},
        metadata={"seed": str(cfg.seed), "d_in": str(dataset.d_in),
                  "centroid": json.dumps([1.0] + [0.0] * (dataset.d_in - 1))})
    adapterio.save(huge, tmp_path / "huge.lmem")
    registry = AdapterRegistry()
    registry.register(tmp_path / "huge.lmem")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BenchError, match="logits"):
            registry.query([1e120] * dataset.d_in, 1, None)


@pytest.mark.parametrize("top_n, merge", [
    (1, {"method": "linear", "weights": [5, -4]}),
    (1, {"method": "ties", "weights": [0.5, 0.5]}),
    (3, {"method": "cat", "weights": [5, -4]}),
    (3, {"method": "cat", "weights": [0.25, 0.25, 0.5]}),
    (1, {"method": "linear", "weights": [float("nan")]}),
    (2, {"method": "linear", "weights": [0.5, float("nan")]}),
    (3, {"method": "cat", "weights": []}),
])
def test_weights_no_merge_would_read_are_bad_request(loaded_server, top_n,
                                                     merge):
    srv, dataset = loaded_server
    reply = request_line("127.0.0.1", srv.port, {
        "op": "query", "vector": dataset.keys.data[0].tolist(),
        "top_n": top_n, "merge": merge})
    assert reply["error"]["code"] == "bad_request"
    assert "weights" in reply["error"]["message"]


def test_weights_that_fit_a_one_module_route_are_served(loaded_server):
    srv, dataset = loaded_server
    query = {"op": "query", "vector": dataset.keys.data[0].tolist(),
             "top_n": 1}
    plain = request_line("127.0.0.1", srv.port, query)
    weighted = request_line("127.0.0.1", srv.port, {
        **query, "merge": {"method": "linear", "weights": [1.0]}})
    assert weighted["em_logits_digest"] == plain["em_logits_digest"]


def test_modules_with_top_n_is_bad_request_naming_both(loaded_server):
    srv, dataset = loaded_server
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as conn:
        fh = conn.makefile("r", encoding="utf-8")
        conn.sendall((json.dumps({
            "op": "query", "vector": dataset.keys.data[0].tolist(),
            "top_n": 2, "modules": ["shard_000"]}) + "\n").encode())
        error = json.loads(fh.readline())["error"]
        assert error["code"] == "bad_request"
        assert "modules" in error["message"] and "top_n" in error["message"]
        conn.sendall((json.dumps({"op": "stats"}) + "\n").encode())
        assert json.loads(fh.readline())["ok"]


def test_overflowing_delta_is_non_finite_error_and_connection_serves(
        assets, tmp_path):
    dataset, paths, single_path, cfg = assets
    # float32 factors of 1e5 and alpha 1e300 give a dense delta past float64
    huge = adapterio.Adapter(
        name="huge", targets={"memory": adapterio.LowRankPair(
            a=Matrix(np.full((1, dataset.d_in), 1e5)),
            b=Matrix(np.full((memlab.D_OUT, 1), 1e5)), alpha=1e300, rank=1)},
        metadata={"seed": str(cfg.seed), "d_in": str(dataset.d_in),
                  "centroid": json.dumps([1.0] + [0.0] * (dataset.d_in - 1))})
    adapterio.save(huge, tmp_path / "huge.lmem")
    srv, _ = serve_in_thread(ServeConfig(port=0))
    try:
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as conn:
            fh = conn.makefile("r", encoding="utf-8")

            def ask(request):
                conn.sendall((json.dumps(request) + "\n").encode())
                return json.loads(fh.readline())

            for path in [tmp_path / "huge.lmem", *paths[:2]]:
                assert ask({"op": "register", "path": str(path)})["ok"]
            toward_huge = [1.0] + [0.0] * (dataset.d_in - 1)
            for top_n in (1, 3):
                reply = ask({"op": "query", "vector": toward_huge,
                             "top_n": top_n,
                             "merge": {"method": "ties", "density": 0.3}})
                assert reply["error"]["code"] == "NonFiniteError"
            assert ask({"op": "stats"})["adapters"] == 3
            reply = ask({"op": "query", "modules": ["shard_000"],
                         "vector": dataset.keys.data[0].tolist()})
            assert reply["ok"] and reply["route"] == [["shard_000", 1.0]]
    finally:
        srv.shutdown()
        srv.server_close()


def test_warm_registry_query_allocates_one_weight_array(assets):
    """A warm query's only large allocation is the weight w0 + delta
    (100 x 256 float64, 200 KiB): the delta is composed into a fresh array
    and the base is added into it in place."""
    import tracemalloc

    dataset, paths, single_path, cfg = assets
    registry = AdapterRegistry()
    for path in paths:
        registry.register(path)
    vector = dataset.keys.data[5].tolist()
    cases = [(1, None), (3, {"method": "ties", "density": 0.3}),
             (3, {"method": "dare-ties", "density": 0.3, "drop_rate": 0.3}),
             (3, {"method": "linear"}), (3, {"method": "cat"})]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for top_n, merge in cases:
            for _ in range(2):
                registry.query(vector, top_n, merge)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            registry.query(vector, top_n, merge)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 300 * 1024, (top_n, merge, peak)
    finally:
        if not tracing:
            tracemalloc.stop()
