import json

import pytest

from loramem import adapterio
from loramem.cli import main


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    assert main(["lab", "gen", "--pairs", "80", "--seed", "3",
                 "--out", str(tmp / "pb.txt")]) == 0
    assert main([
        "lab", "train", "--data", str(tmp / "pb.txt"), "--budget", "300",
        "--rank", "8", "--steps", "500", "--seed", "4",
        "--out", str(tmp / "single.lmem")]) == 0
    return tmp


def test_version(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
    assert "loramem 0.1.0" in out + err


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--no-such-flag")
    assert code == 2
    assert "usage" in (out + err).lower()


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_runtime_error_exit_code_and_prefix(capsys):
    code, out, err = run_cli(capsys, "adapter", "inspect", "/no/such/file")
    assert code == 1
    assert err.startswith("loramem: error[runtime]:")
    assert err.count("\n") == 1


def test_lab_gen_writes_dataset_and_sidecar(workdir, capsys):
    assert (workdir / "pb.txt").exists()
    sidecar = json.loads((workdir / "pb.txt.json").read_text())
    assert sidecar["seed"] == 3
    assert sidecar["n_records"] == 80


def test_lab_train_then_eval(workdir, capsys):
    code, out, _ = run_cli(capsys, "lab", "eval",
                           "--data", str(workdir / "pb.txt"),
                           "--adapter", str(workdir / "single.lmem"))
    assert code == 0
    blob = json.loads(out)
    assert 0.0 <= blob["em"] <= 1.0
    assert blob["config"]["lab_command"] == "eval"


def test_adapter_inspect(workdir, capsys):
    code, out, _ = run_cli(capsys, "adapter", "inspect",
                           str(workdir / "single.lmem"))
    assert code == 0
    header = json.loads(out)
    assert header["targets"][0]["id"] == "memory"
    assert header["format_version"] == 1


def test_merge_cli_writes_loadable_container(workdir, capsys, tmp_path):
    out_path = tmp_path / "merged.lmem"
    code, out, _ = run_cli(
        capsys, "merge", str(workdir / "single.lmem"),
        str(workdir / "single.lmem"),
        "--method", "linear", "--weights", "0.25,0.75",
        "--out", str(out_path))
    assert code == 0
    loaded = adapterio.load(out_path)  # factorized storage by default
    assert "memory" in loaded.targets
    code, out, _ = run_cli(
        capsys, "merge", str(workdir / "single.lmem"),
        str(workdir / "single.lmem"),
        "--method", "ties", "--density", "0.5", "--storage", "dense",
        "--out", str(out_path))
    assert code == 0
    header = adapterio.inspect_header(out_path)
    assert header["targets"][0]["kind"] == "dense"


def test_sweep_cli_writes_csvs_with_config_echo(capsys, tmp_path):
    grid = {"ranks": [2, 4], "loads": [16, 150], "seeds": [1],
            "tau": 0.9, "base": {"steps": 150}}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code, out, _ = run_cli(
        capsys, "sweep", "--grid", str(grid_path),
        "--out", str(tmp_path / "results.csv"),
        "--efficiency-out", str(tmp_path / "efficiency.csv"))
    assert code == 0
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0] == "# loramem 0.1.0"
    assert results[1].startswith("# config ")
    echo = json.loads(results[1][len("# config "):])
    assert echo["grid"]["ranks"] == [2, 4]
    assert results[2] == "rank,load_tokens,seed,em,n_params"
    assert len(results) == 3 + 4  # header lines + cells
    assert (tmp_path / "efficiency.csv").exists()


def test_sweep_grid_typo_is_runtime_error(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"rank": [2]}))
    code, _, err = run_cli(capsys, "sweep", "--grid", str(grid),
                           "--out", str(tmp_path / "r.csv"),
                           "--efficiency-out", str(tmp_path / "e.csv"))
    assert code == 1
    assert err.startswith("loramem: error[runtime]:") and "rank" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--alpha", "--learning-rate",
                                  "--init-stddev"])
def test_lab_train_non_finite_scalar_is_config_error(workdir, capsys,
                                                     tmp_path, flag, value):
    code, _, err = run_cli(capsys, "lab", "train", "--data",
                           str(workdir / "pb.txt"), f"{flag}={value}",
                           "--out", str(tmp_path / "x.lmem"))
    assert code == 1
    field = flag[2:].replace("-", "_")
    assert err.startswith(f"loramem: error[runtime]: {field} must be finite")
    assert not (tmp_path / "x.lmem").exists()


def test_sweep_grid_non_finite_base_is_config_error(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ranks": [2], "loads": [16], "seeds": [1], '
                    '"base": {"learning_rate": NaN}}')
    code, _, err = run_cli(capsys, "sweep", "--grid", str(grid),
                           "--out", str(tmp_path / "r.csv"),
                           "--efficiency-out", str(tmp_path / "e.csv"))
    assert code == 1
    assert err.startswith("loramem: error[runtime]: learning_rate must be "
                          "finite")
    assert not (tmp_path / "r.csv").exists()


def test_sweep_reports_byte_identical_across_runs(capsys, tmp_path,
                                                  monkeypatch):
    # identical argv (relative paths), two working directories
    grid = {"ranks": [2], "loads": [16], "seeds": [1], "tau": 0.9,
            "base": {"steps": 100}}
    outs = []
    for tag in ("a", "b"):
        workdir = tmp_path / tag
        workdir.mkdir()
        (workdir / "grid.json").write_text(json.dumps(grid))
        monkeypatch.chdir(workdir)
        code, _, _ = run_cli(capsys, "sweep", "--grid", "grid.json",
                             "--out", "results.csv",
                             "--efficiency-out", "efficiency.csv")
        assert code == 0
        outs.append((workdir / "results.csv").read_bytes()
                    + (workdir / "efficiency.csv").read_bytes())
    assert outs[0] == outs[1]


def test_route_cli(workdir, capsys, tmp_path):
    report_path = tmp_path / "multi.json"
    index_path = tmp_path / "idx.json"
    code, _, _ = run_cli(
        capsys, "multi", "run", "--data", str(workdir / "pb.txt"),
        "--shards", "4", "--rank", "4", "--steps", "200",
        "--route", "oracle", "--topn", "1",
        "--report", str(report_path), "--save-index", str(index_path))
    assert code == 0
    index_blob = json.loads(index_path.read_text())
    some_id = next(iter(index_blob["entries"]))
    query = json.dumps(index_blob["entries"][some_id])
    code, out, _ = run_cli(capsys, "route", "--index", str(index_path),
                           "--query", query, "--k", "2")
    assert code == 0
    ranked = json.loads(out)["route"]
    assert ranked[0][0] == some_id
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_multi_run_report_fields(workdir, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "multi", "run", "--data", str(workdir / "pb.txt"),
        "--shards", "4", "--rank", "8", "--steps", "400",
        "--route", "cosine", "--noise", "0.5", "--topn", "3",
        "--merge", "ties", "--density", "0.3",
        "--report", str(report_path))
    assert code == 0
    blob = json.loads(report_path.read_text())
    assert set(blob) >= {"artifact", "config", "em", "routing_accuracy",
                         "per_shard_em", "shards"}
    assert blob["artifact"]["version"] == "0.1.0"
    assert blob["config"]["shards"] == 4
    assert len(blob["per_shard_em"]) == 4


def test_multi_interference_cli(workdir, capsys, tmp_path):
    report_path = tmp_path / "interf.json"
    code, out, _ = run_cli(
        capsys, "multi", "interference", "--data", str(workdir / "pb.txt"),
        "--shards", "4", "--rank", "8", "--steps", "400",
        "--n-range", "1,2,4", "--density", "0.3",
        "--report", str(report_path))
    assert code == 0
    blob = json.loads(report_path.read_text())
    assert set(blob["em_by_merge_count"]) == {"1", "2", "4"}


def test_bench_cli(workdir, capsys, tmp_path):
    adapters_dir = tmp_path / "adapters"
    code, _, _ = run_cli(
        capsys, "multi", "run", "--data", str(workdir / "pb.txt"),
        "--shards", "4", "--rank", "8", "--steps", "300", "--seed", "4",
        "--route", "oracle", "--report", str(tmp_path / "r.json"),
        "--save-adapters", str(adapters_dir))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "bench", "--mode", "preloaded", "--questions", "10",
        "--data", str(workdir / "pb.txt"),
        "--adapters", str(adapters_dir), "--seed", "4",
        "--out", str(tmp_path / "bench.json"))
    assert code == 0
    blob = json.loads((tmp_path / "bench.json").read_text())
    assert blob["report"]["mode"] == "preloaded"
    assert blob["report"]["question_count"] == 10


def test_serve_cli_subprocess(workdir, tmp_path):
    import socket
    import subprocess
    import sys
    import time

    from loramem.servebench import request_line

    adapters_dir = tmp_path / "adapters"
    assert main(["multi", "run", "--data", str(workdir / "pb.txt"),
                 "--shards", "2", "--rank", "4", "--steps", "150",
                 "--seed", "4", "--route", "oracle",
                 "--report", str(tmp_path / "r.json"),
                 "--save-adapters", str(adapters_dir)]) == 0
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "loramem", "serve", "--port", str(port),
         "--adapters", str(adapters_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        reply = None
        for _ in range(100):
            time.sleep(0.1)
            try:
                reply = request_line("127.0.0.1", port, {"op": "stats"},
                                     timeout=2.0)
                break
            except OSError:
                continue
        assert reply is not None, "server never came up"
        assert reply["adapters"] == 2
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_config_echo_round_trips(workdir, capsys, tmp_path):
    """Rebuilding argv from the echoed config reproduces the same config."""
    report_path = tmp_path / "echo.json"
    args = ["multi", "run", "--data", str(workdir / "pb.txt"),
            "--shards", "4", "--rank", "4", "--steps", "150",
            "--route", "oracle", "--report", str(report_path)]
    assert main(args) == 0
    capsys.readouterr()
    echo = json.loads(report_path.read_text())["config"]

    rebuilt = ["multi", "run"]
    skip = {"command", "multi_command"}
    for key, value in echo.items():
        if key in skip or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        rebuilt.extend([flag, str(value)])
    report2 = tmp_path / "echo2.json"
    idx = rebuilt.index("--report")
    rebuilt[idx + 1] = str(report2)
    assert main(rebuilt) == 0
    capsys.readouterr()
    echo2 = json.loads(report2.read_text())["config"]
    echo.pop("report")
    echo2.pop("report")
    assert echo == echo2
