"""loramem benchmark: one command per workload run, plus compare and
self-test modes.

    python3 perfbench/run.py --workload lab --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 \\
        --trace 1 --out results.jsonl
    python3 perfbench/run.py compare parent.jsonl change.jsonl
    python3 perfbench/run.py selftest

A run prints a full result (metrics, per-layer numbers, provenance) as one
JSON line, then, as its last line, the summary object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--out` appends the full
result to a JSON-lines file, which is what `compare` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("lab", "serve_hot", "serve_churn")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    from perfbench import lab, serve

    work = common.WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        if name == "lab":
            result = lab.run(seed, trace, work, smoke=smoke)
        else:
            wl = serve.HOT if name == "serve_hot" else serve.CHURN
            result = serve.run(wl, seed, seconds, trace, work, smoke=smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass
    result["provenance"] = common.provenance(name, seed)
    result["trace"] = trace
    result["seconds"] = seconds
    return result


def summary(result: dict, declared: dict) -> dict:
    """The last-line object: every declared metric of the run's kind."""
    if result["trace"]:
        metrics = {m["name"]: {"value": float(result["layers"][m["name"]]),
                               "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        metrics = {}
        for m in declared["end_to_end"]:
            value, unit = result["metrics"][m["name"]]
            if unit != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
            metrics[m["name"]] = {"value": float(value), "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["ops_attempted"]),
            "failed": int(result["ops_failed"]), "metrics": metrics}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from perfbench import compare
        return compare.main(argv[1:])
    if argv[:1] == ["selftest"]:
        from perfbench import selftest
        return selftest.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full result to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = common.declared()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    line = summary(result, declared)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    print(json.dumps(result))
    print(json.dumps(line))
    if not line["correct"]:
        print(f"perfbench: {args.workload} failed its correctness gate: "
              f"{json.dumps(result['detail'])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
