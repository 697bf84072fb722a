"""Shared helpers: checkout layout, provenance, statistics and the registry
server process."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program source)."""


def require_source() -> None:
    """Put the checkout's own `src` first on the import path."""
    if not (SRC / "loramem" / "__init__.py").is_file():
        raise SetupError(f"no loramem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def declared() -> dict:
    """BENCHMARK.json: the workloads and metrics this benchmark declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`loramem.cli.main(argv)` in this process; exit code and stdout."""
    from loramem import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# --- statistics --------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# --- provenance --------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


# --- the registry server process ---------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """A registry server in its own process, stopped with SIGINT."""

    def __init__(self, argv: list[str], timeout: float = 60.0):
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        # A thread drains stderr for the server's whole life, so a server
        # that logs a lot never blocks on a full pipe.
        self._first_line: queue.Queue = queue.Queue()
        self._stderr: list[str] = []
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            line = self._first_line.get(timeout=timeout)
        except queue.Empty:
            line = ""
        self.listening = time.perf_counter()
        if "listening on" not in line:
            self._stop_and_collect()
            raise RuntimeError(f"server did not start: {line}"
                               f"{''.join(self._stderr)[-2000:]}")
        self.port = int(line.rsplit(":", 1)[1])

    def _read_stderr(self) -> None:
        for n, line in enumerate(self.proc.stderr):
            if n == 0:
                self._first_line.put(line)
            else:
                self._stderr.append(line)
        self._first_line.put("")

    @classmethod
    def registry(cls, adapter_dir: Path, traced_spans: Path | None = None):
        if traced_spans is None:
            argv = [sys.executable, "-m", "loramem", "serve", "--port", "0",
                    "--adapters", str(adapter_dir)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                    "--adapters", str(adapter_dir),
                    "--spans", str(traced_spans)]
        return cls(argv)

    @property
    def startup_s(self) -> float:
        return self.listening - self.launched

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def _stop_and_collect(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stderr.close()

    def stop(self) -> str | None:
        """Stop the server; returns its stderr tail if it had crashed."""
        self._stop_and_collect()
        if self.proc.returncode in (0, -signal.SIGINT):
            return None
        return (f"server exited with {self.proc.returncode}: "
                f"{''.join(self._stderr)[-2000:]}")


class Client:
    """One persistent connection for closed-loop calls."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: dict) -> tuple[dict, float]:
        """Reply and round-trip time in ms."""
        t0 = time.perf_counter()
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self.reader.readline()
        rtt_ms = (time.perf_counter() - t0) * 1e3
        return (json.loads(line) if line else {}), rtt_ms

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
