#!/usr/bin/env python3
"""End-to-end serving benchmark: prepares adapter assets on disk, then runs
the 30-question scenario in all four modes and reports per-stage totals.

Usage:
  python scripts/run_serving_bench.py --outdir runs/bench
  python scripts/run_serving_bench.py --questions 100 --repeats 5
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from loramem import __version__, adapterio, memlab, multimem, servebench
from loramem.memlab import TrainConfig
from loramem.merge import MergeMethod, MergeSpec
from loramem.servebench import BenchScenario, Mode


def prepare_assets(outdir: Path, shards: int, seed: int):
    records = memlab.gen_phonebook(120, seed=9)
    dataset = memlab.slice_by_budget(records, 700)
    cfg = TrainConfig(rank=8, alpha=8.0, steps=800, seed=seed)
    plan = multimem.partition(dataset, shards)
    adapters = multimem.train_shards(dataset, plan, cfg)
    paths = []
    for adapter in adapters:
        path = outdir / f"{adapter.name}.lmem"
        adapterio.save(adapter, path)
        paths.append(path)
    single = multimem.memory_adapter(
        "single", memlab.train(dataset, cfg).pair, dataset, cfg)
    single_path = outdir / "single.lmem"
    adapterio.save(single, single_path)
    return dataset, paths, single_path, cfg


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--questions", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--topn", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--outdir", default="runs/bench")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset, paths, single_path, cfg = prepare_assets(outdir, args.shards,
                                                      args.seed)

    def scenario(mode):
        return BenchScenario(
            mode=mode, dataset=dataset, adapter_paths=list(paths),
            single_adapter_path=single_path, question_count=args.questions,
            top_n=args.topn,
            merge_spec=MergeSpec(method=MergeMethod.TIES, density=0.3),
            base_seed=cfg.seed, d_in=dataset.d_in)

    summary = {"artifact": {"name": "loramem", "version": __version__},
               "config": vars(args), "modes": {}}
    for mode in Mode:
        reps = [servebench.run_bench(scenario(mode))
                for _ in range(args.repeats)]
        stage_names = sorted(reps[0].totals)
        medians = {name: statistics.median(r.totals.get(name, 0.0)
                                           for r in reps)
                   for name in stage_names}
        summary["modes"][mode.value] = {
            "em": reps[0].em,
            "median_totals_ms": medians,
            "median_wall_ms": statistics.median(
                sum(r.totals.values()) for r in reps),
        }
        (outdir / f"report_{mode.value}.json").write_text(
            json.dumps(reps[0].to_json(), indent=2, sort_keys=True) + "\n")
        print(f"{mode.value:10s} wall={summary['modes'][mode.value]['median_wall_ms']:9.2f} ms  "
              f"em={reps[0].em:.2f}")

    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {outdir}/summary.json and per-mode reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
