"""Unified command line: lab, sweep, merge, route, multi, bench, serve,
adapter.

Every report embeds the artifact version and the effective config (all
resolved flag values), so identical argv plus seeds reproduce result files
byte for byte; timing reports are exempt for the measured times only.
Usage errors exit 2, runtime failures exit 1 with a single parseable
`loramem: error[...]` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from . import __version__, adapterio, analysis, memlab, merge as merge_mod
from . import multimem, router, servebench
from .memlab import TrainConfig
from .merge import MergeMethod, MergeSpec
from .router import PolicyKind, RoutingPolicy
from .servebench import BenchScenario, Mode, ServeConfig


def _echo(args: argparse.Namespace) -> dict:
    """Effective config: every resolved flag value, JSON-safe."""
    out = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


def _report_body(args: argparse.Namespace, payload: dict) -> dict:
    return {
        "artifact": {"name": "loramem", "version": __version__},
        "config": _echo(args),
        **payload,
    }


def _write_json(path, blob: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_json(blob: dict) -> None:
    print(json.dumps(blob, indent=2, sort_keys=True))


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rank", type=int, default=8)
    parser.add_argument("--alpha", type=float, default=None,
                        help="delta scale; defaults to the rank")
    parser.add_argument("--learning-rate", type=float, default=0.5)
    parser.add_argument("--steps", type=int, default=1500)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--init-stddev", type=float, default=0.02)


def _add_merge_flags(parser: argparse.ArgumentParser) -> None:
    """The merge step of commands that compose routed modules."""
    parser.add_argument("--merge", default="ties",
                        choices=[m.value for m in MergeMethod])
    parser.add_argument("--weights", default=None)
    parser.add_argument("--density", type=float, default=1.0)
    parser.add_argument("--drop-rate", type=float, default=0.0)
    parser.add_argument("--merge-seed", dest="merge_seed", type=int,
                        default=0)


def _train_config(args: argparse.Namespace) -> TrainConfig:
    alpha = args.alpha if args.alpha is not None else float(args.rank)
    return TrainConfig(
        rank=args.rank, alpha=alpha, learning_rate=args.learning_rate,
        steps=args.steps, batch_size=args.batch_size, seed=args.seed,
        init_stddev=args.init_stddev,
    )


def _merge_spec(args: argparse.Namespace, method: str,
                mask_seed: int) -> MergeSpec:
    weights = None
    if args.weights:
        weights = tuple(float(x) for x in args.weights.split(","))
    return MergeSpec(
        method=MergeMethod(method),
        weights=weights,
        density=args.density,
        drop_rate=args.drop_rate,
        seed=mask_seed,
    )


# --- subcommand handlers ----------------------------------------------------


def _cmd_adapter_inspect(args) -> int:
    _print_json(adapterio.inspect_header(args.path))
    return 0


def _cmd_lab_gen(args) -> int:
    records = memlab.gen_phonebook(args.pairs, seed=args.seed)
    if args.budget is not None:
        dataset = memlab.slice_by_budget(records, args.budget, args.d_in)
    else:
        dataset = memlab.make_dataset(records, args.d_in)
    memlab.save_dataset(dataset, args.out, seed=args.seed)
    _print_json(_report_body(args, {
        "records": len(dataset), "token_count": dataset.token_count,
        "out": str(args.out),
    }))
    return 0


def _cmd_lab_train(args) -> int:
    dataset = memlab.load_dataset(args.data, args.d_in)
    if args.budget is not None:
        dataset = memlab.slice_by_budget(dataset.records, args.budget, args.d_in)
    config = _train_config(args)
    result = memlab.train(dataset, config)
    adapter = multimem.memory_adapter(args.name, result.pair, dataset, config)
    adapterio.save(adapter, args.out)
    em = memlab.evaluate(result.model, dataset)
    _print_json(_report_body(args, {
        "em": em, "final_loss": result.losses[-1],
        "n_params": adapterio.count_params(adapter), "out": str(args.out),
    }))
    return 0


def _cmd_lab_eval(args) -> int:
    dataset = memlab.load_dataset(args.data, args.d_in)
    adapter = adapterio.load(args.adapter)
    seed = int(adapter.metadata.get("seed", "0"))
    model = memlab.MemoryModel(
        w0=memlab.frozen_base(seed, dataset.d_in),
        pair=adapter.targets[multimem.TARGET_ID],
        d_in=dataset.d_in,
    )
    _print_json(_report_body(args, {
        "em": memlab.evaluate(model, dataset), "records": len(dataset),
    }))
    return 0


def _cmd_sweep(args) -> int:
    with open(args.grid, encoding="utf-8") as fh:
        blob = json.load(fh)
    grid, base = analysis.read_grid(blob)
    progress = None
    if args.verbose:
        def progress(rank, load, seed, em):
            print(f"cell rank={rank} load={load} seed={seed} em={em:.3f}",
                  file=sys.stderr)
    result = analysis.run_sweep(grid, base, progress=progress)
    echo = _echo(args)
    echo["grid"] = {"ranks": list(grid.ranks), "loads": list(grid.loads),
                    "seeds": list(grid.seeds), "tau": grid.tau}
    lines = analysis.results_csv_lines(result, echo, __version__)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    eff_lines = analysis.efficiency_csv_lines(result, grid.tau, echo,
                                              __version__)
    Path(args.efficiency_out).write_text("\n".join(eff_lines) + "\n",
                                         encoding="utf-8")
    curve = analysis.efficiency_curve(result, grid.tau)
    _print_json(_report_body(args, {
        "cells": len(result.cells),
        "t_max": {str(r): analysis.find_t_max(result, r, grid.tau)
                  for r in grid.ranks},
        "efficiency": {str(r): curve.get(r) for r in grid.ranks},
        "out": str(args.out),
    }))
    return 0


def _cmd_merge(args) -> int:
    adapters = [adapterio.load(p) for p in args.adapters]
    spec = _merge_spec(args, args.method, args.seed)
    merged = merge_mod.merge(adapters, spec)
    adapterio.save_merged(
        name=args.name, merged=merged, path=args.out,
        metadata={"method": spec.method.value,
                  "inputs": json.dumps([a.name for a in adapters])},
        storage=args.storage,
    )
    _print_json(_report_body(args, {
        "targets": list(merged.targets), "out": str(args.out),
    }))
    return 0


def _cmd_route(args) -> int:
    index = router.load_index(args.index)
    query = json.loads(args.query)
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=args.k,
                           noise_stddev=args.noise, seed=args.seed)
    ranked = router.route(index, query, policy, ordinal=args.ordinal)
    _print_json(_report_body(args, {
        "route": [[mid, score] for mid, score in ranked],
    }))
    return 0


def _cmd_multi_run(args) -> int:
    dataset = memlab.load_dataset(args.data, args.d_in)
    config = multimem.SystemConfig(
        train=_train_config(args),
        policy=RoutingPolicy(
            kind=PolicyKind.ORACLE if args.route == "oracle"
            else PolicyKind.COSINE_TOP_K,
            k=args.topn, noise_stddev=args.noise, seed=args.seed,
        ),
        merge=_merge_spec(args, args.merge, args.merge_seed),
        top_n=args.topn,
    )
    plan = multimem.partition(dataset, args.shards)
    adapters = multimem.train_shards(dataset, plan, config.train)
    index = multimem.build_shard_index(dataset, plan)
    report = multimem.eval_system(dataset, adapters, index, config)
    if args.save_adapters:
        outdir = Path(args.save_adapters)
        outdir.mkdir(parents=True, exist_ok=True)
        for adapter in adapters:
            adapterio.save(adapter, outdir / f"{adapter.name}.lmem")
    if args.save_index:
        router.save_index(index, args.save_index)
    body = _report_body(args, {
        "em": report.em,
        "routing_accuracy": report.routing_accuracy,
        "per_shard_em": report.per_shard_em,
        "shards": report.shard_count,
    })
    _write_json(args.report, body)
    _print_json(body)
    return 0


def _cmd_multi_interference(args) -> int:
    dataset = memlab.load_dataset(args.data, args.d_in)
    config = multimem.SystemConfig(
        train=_train_config(args),
        policy=RoutingPolicy(kind=PolicyKind.ORACLE),
        merge=_merge_spec(args, args.merge, args.merge_seed),
        top_n=1,
    )
    plan = multimem.partition(dataset, args.shards)
    adapters = multimem.train_shards(dataset, plan, config.train)
    n_range = [int(x) for x in args.n_range.split(",")]
    curve = multimem.interference_sweep(dataset, adapters, config, n_range)
    body = _report_body(args, {
        "em_by_merge_count": {str(n): curve[n] for n in n_range},
    })
    _write_json(args.report, body)
    _print_json(body)
    return 0


def _cmd_bench(args) -> int:
    dataset = memlab.load_dataset(args.data, args.d_in)
    adapter_paths = sorted(Path(args.adapters).glob("shard_*.lmem")) \
        if args.adapters else []
    single = Path(args.single) if args.single else (
        Path(args.adapters) / "single.lmem" if args.adapters else None)
    scenario = BenchScenario(
        mode=Mode(args.mode),
        dataset=dataset,
        adapter_paths=list(adapter_paths),
        single_adapter_path=single,
        question_count=args.questions,
        top_n=args.topn,
        merge_spec=_merge_spec(args, args.merge, args.merge_seed),
        base_seed=args.seed,
    )
    report = servebench.run_bench(scenario)
    body = _report_body(args, {"report": report.to_json()})
    _write_json(args.out, body)
    _print_json(_report_body(args, {
        "totals": report.totals, "em": report.em, "out": str(args.out),
    }))
    return 0


def _cmd_serve(args) -> int:
    config = ServeConfig(host=args.host, port=args.port,
                         adapter_dir=Path(args.adapters) if args.adapters
                         else None)
    # SIGINT may arrive inherited as ignored (a background job of a shell);
    # SIGTERM stops the server through the same clean path.
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    server = servebench.RegistryServer(config)
    try:
        print(f"loramem registry listening on {args.host}:{server.port}",
              file=sys.stderr)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="loramem",
        description="Low-rank adapter memory engine and experiment lab.",
        formatter_class=fmt,
    )
    parser.add_argument("--version", action="version",
                        version=f"loramem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adapter", help="adapter container utilities",
                       formatter_class=fmt)
    asub = p.add_subparsers(dest="adapter_command", required=True)
    q = asub.add_parser("inspect", help="print an LMEM header as JSON",
                        formatter_class=fmt)
    q.add_argument("path")
    q.set_defaults(func=_cmd_adapter_inspect)

    p = sub.add_parser("lab", help="dataset generation, training, eval",
                       formatter_class=fmt)
    lsub = p.add_subparsers(dest="lab_command", required=True)

    q = lsub.add_parser("gen", help="generate a key-value dataset",
                        formatter_class=fmt)
    q.add_argument("--pairs", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=None,
                   help="token budget; slice after generation")
    q.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_lab_gen)

    q = lsub.add_parser("train", help="train a memory adapter",
                        formatter_class=fmt)
    q.add_argument("--data", required=True)
    q.add_argument("--budget", type=int, default=None)
    q.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    q.add_argument("--name", default="memory")
    q.add_argument("--out", required=True)
    _add_train_flags(q)
    q.set_defaults(func=_cmd_lab_train)

    q = lsub.add_parser("eval", help="evaluate an adapter on a dataset",
                        formatter_class=fmt)
    q.add_argument("--data", required=True)
    q.add_argument("--adapter", required=True)
    q.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    q.set_defaults(func=_cmd_lab_eval)

    p = sub.add_parser("sweep", help="capacity/efficiency sweep",
                       formatter_class=fmt)
    p.add_argument("--grid", required=True, help="grid config JSON")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--efficiency-out", default="efficiency.csv")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("merge", help="compose adapters into one delta",
                       formatter_class=fmt)
    p.add_argument("adapters", nargs="+", help="input LMEM paths")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in MergeMethod])
    p.add_argument("--weights", default=None,
                   help="comma-separated; default uniform")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0,
                   help="mask seed for the drop-and-rescale variants")
    p.add_argument("--storage", choices=["factorized", "dense"],
                   default="factorized")
    p.add_argument("--name", default="merged")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("route", help="cosine top-k over a saved index",
                       formatter_class=fmt)
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True, help="JSON list of floats")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ordinal", type=int, default=0)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("multi", help="multi-module experiments",
                       formatter_class=fmt)
    msub = p.add_subparsers(dest="multi_command", required=True)

    q = msub.add_parser("run", help="partition, train shards, routed eval",
                        formatter_class=fmt)
    q.add_argument("--data", required=True)
    q.add_argument("--shards", type=int, default=8)
    q.add_argument("--route", choices=["oracle", "cosine"], default="oracle")
    q.add_argument("--noise", type=float, default=0.0)
    _add_merge_flags(q)
    q.add_argument("--topn", type=int, default=1)
    q.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    q.add_argument("--report", required=True)
    q.add_argument("--save-adapters", default=None)
    q.add_argument("--save-index", default=None)
    _add_train_flags(q)
    q.set_defaults(func=_cmd_multi_run)

    q = msub.add_parser("interference",
                        help="exact match vs merged module count",
                        formatter_class=fmt)
    q.add_argument("--data", required=True)
    q.add_argument("--shards", type=int, default=8)
    q.add_argument("--n-range", default="1,2,3,4,5")
    _add_merge_flags(q)
    q.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    q.add_argument("--report", required=True)
    _add_train_flags(q)
    q.set_defaults(func=_cmd_multi_interference)

    p = sub.add_parser("bench", help="serving latency breakdown",
                       formatter_class=fmt)
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in Mode])
    p.add_argument("--questions", type=int, default=30)
    p.add_argument("--data", required=True)
    p.add_argument("--adapters", default=None, help="directory of LMEM files")
    p.add_argument("--single", default=None, help="single adapter path")
    p.add_argument("--topn", type=int, default=3)
    _add_merge_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-in", type=int, default=memlab.D_IN_DEFAULT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="adapter registry service",
                       formatter_class=fmt)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7642)
    p.add_argument("--adapters", default=None)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("loramem: error[interrupted]", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"loramem: error[runtime]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
