import json
import socket
import statistics
import struct
import threading

import numpy as np
import pytest

from loramem import adapterio, memlab, multimem
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.servebench import (
    STAGE_NAMES, AdapterRegistry, BenchError, BenchScenario, Mode,
    RegistryServer, ServeConfig, request_line, run_bench, serve_in_thread,
)


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
        base_seed=cfg.seed, d_in=dataset.d_in)


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
