"""Self-test: a tiny run of every workload, untraced and traced.

    python3 perfbench/run.py selftest

Checks that each run exits 0 with a well-formed last line and passes its
correctness gate, that the traced and untraced runs of a workload produce
the same output digest, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and perfbench/. Prints the tracing
overhead (traced over untraced) of each end-to-end metric; at smoke size
these ratios are indicative only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from . import common

SEED = 3


def _run(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main(argv) -> int:
    from perfbench.run import WORKLOADS

    declared = common.declared()
    problems = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = _run(common.ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                sys.stderr.write(proc.stderr[-3000:])
                problems.append(f"{workload} trace={trace}: "
                                f"exit {proc.returncode}")
                continue
            last, full = json.loads(lines[-1]), json.loads(lines[-2])
            wanted = declared["per_layer" if trace else "end_to_end"]
            if set(last) != {"correct", "attempted", "failed", "metrics"} \
                    or set(last["metrics"]) != {m["name"] for m in wanted} \
                    or not last["correct"] or last["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: bad last line")
            results[trace] = full
        if len(results) == 2:
            digests = [results[t]["detail"]["outputs_digest"] for t in (0, 1)]
            if digests[0] != digests[1]:
                problems.append(f"{workload}: traced digest {digests[1]} != "
                                f"untraced {digests[0]}")
            same = "same" if digests[0] == digests[1] else "DIFFERS"
            print(f"{workload}: outputs digest {digests[0][:16]}… "
                  f"(traced: {same})")
            for m in declared["end_to_end"]:
                plain = results[0]["metrics"][m["name"]][0]
                traced = results[1]["metrics"][m["name"]][0]
                print(f"  {m['name']:18s} untraced {plain:10.4g}  traced "
                      f"{traced:10.4g}  ratio {traced / plain:6.3f}")

    bare = common.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "lab", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0
