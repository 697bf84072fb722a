"""Capacity sweeps over (rank, load, seed), saturation detection, and the
tokens-per-parameter efficiency curve.

Threshold crossings are decided on the mean exact-match over seeds; the
statistic is declared here and echoed into every report. The supported
load is never interpolated: t_max is always one of the swept loads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from . import adapterio, memlab
from .adapterio import Adapter
from .fields import _Field, _is_int, _is_number, _parse
from .matcore import Rng
from .memlab import KvDataset, TrainConfig

# Calibrated defaults: loads spaced so every rank holds the smallest load
# and saturates inside the range under the default training budget, and so
# supported-load ratios between adjacent ranks are not exact powers of two
# (which would tie the efficiency curve).
DEFAULT_RANKS = (2, 4, 8, 16, 32)
DEFAULT_LOADS = (16, 150, 448, 1100, 2000, 3400, 6200)
DEFAULT_SEEDS = (101, 202, 303)
DEFAULT_TAU = 0.9
# Load used for the fixed-load rank-monotonicity check: small enough that
# mid ranks clear it, large enough that low ranks visibly struggle.
MONOTONICITY_LOAD = 448


@dataclass(frozen=True)
class SweepGrid:
    ranks: tuple[int, ...] = DEFAULT_RANKS
    loads: tuple[int, ...] = DEFAULT_LOADS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        for name in ("ranks", "loads", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
        # a cell's config judges its rank and seed before they are compared
        for rank, seed in itertools.product(self.ranks, self.seeds):
            TrainConfig(rank=rank, seed=seed)
        for name in ("ranks", "loads"):
            values = getattr(self, name)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")

    @classmethod
    def from_json(cls, blob: dict) -> "SweepGrid":
        """The grid of a grid JSON object (`read_grid` also reads base)."""
        return read_grid(blob)[0]


def _is_list(value) -> bool:
    return isinstance(value, list)


# The grid decides each cell's rank and alpha, so `base` takes neither.
_BASE_FIELDS = {
    "learning_rate": _Field(TrainConfig.learning_rate, _is_number, "a number"),
    "steps": _Field(TrainConfig.steps, _is_int, "an integer"),
    "batch_size": _Field(TrainConfig.batch_size, _is_int, "an integer"),
    "seed": _Field(TrainConfig.seed, _is_int, "an integer"),
    "init_stddev": _Field(TrainConfig.init_stddev, _is_number, "a number"),
}
_GRID_FIELDS = {
    "ranks": _Field(DEFAULT_RANKS, _is_list, "a list", tuple),
    "loads": _Field(DEFAULT_LOADS, lambda v: _is_list(v) and all(
        map(_is_int, v)), "a list of integers", tuple),
    "seeds": _Field(DEFAULT_SEEDS, _is_list, "a list", tuple),
    "tau": _Field(DEFAULT_TAU, _is_number, "a number", float),
    "base": _Field(TrainConfig(), lambda v: isinstance(v, dict),
                   "a JSON object", lambda v: TrainConfig(
                       **_parse(v, _BASE_FIELDS, "base", ValueError))),
}


def read_grid(blob) -> tuple[SweepGrid, TrainConfig]:
    """The grid and base training config of a grid JSON object; an unknown
    key is an error, so a typo cannot silently run the default grid."""
    if not isinstance(blob, dict):
        raise ValueError("grid must be a JSON object")
    grid = _parse(blob, _GRID_FIELDS, "grid", ValueError)
    base = grid.pop("base")
    return SweepGrid(**grid), base


@dataclass
class SweepResult:
    grid: SweepGrid
    cells: dict[tuple[int, int, int], float]
    n_params: dict[int, int] = field(default_factory=dict)
    d_in: int = memlab.D_IN_DEFAULT

    def mean_em(self, rank: int, load: int) -> float:
        return sum(self.cells[(rank, load, s)] for s in self.grid.seeds) \
            / len(self.grid.seeds)


class SweepError(RuntimeError):
    pass


def _source_records(base: TrainConfig, max_load: int):
    """Master record list sized for the largest swept load."""
    per_record = memlab.count_tokens(
        memlab.format_record(memlab.gen_phonebook(1, seed=0)[0]))
    n = max_load // per_record + 2
    data_seed = Rng(base.seed).derive("sweep-source").seed
    return memlab.gen_phonebook(n, seed=data_seed)


def run_sweep(grid: SweepGrid, base: TrainConfig,
              progress=None) -> SweepResult:
    """Train and evaluate every (rank, load, seed) cell.

    Each cell slices the shared source to its token budget, trains with
    alpha == rank at that cell's seed, and scores exact match on the same
    slice. Cells are independent and the result is deterministic for a
    given grid and base config.
    """
    records = _source_records(base, max(grid.loads))
    datasets: dict[int, KvDataset] = {
        load: memlab.slice_by_budget(records, load) for load in grid.loads
    }
    cells: dict[tuple[int, int, int], float] = {}
    n_params: dict[int, int] = {}
    for rank in grid.ranks:
        for load in grid.loads:
            for seed in grid.seeds:
                cfg = base.with_rank(rank)
                cfg = replace(cfg, seed=seed)
                try:
                    result = memlab.train(datasets[load], cfg)
                except memlab.TrainingDiverged as exc:
                    raise SweepError(
                        f"training diverged at step {exc.step} in cell "
                        f"rank={rank} load={load} seed={seed}"
                    ) from exc
                cells[(rank, load, seed)] = memlab.evaluate(
                    result.model, datasets[load])
                if rank not in n_params:
                    probe = Adapter(name=f"rank-{rank}",
                                    targets={"memory": result.pair})
                    n_params[rank] = adapterio.count_params(probe)
                if progress is not None:
                    progress(rank, load, seed, cells[(rank, load, seed)])
    return SweepResult(grid=grid, cells=cells, n_params=n_params)


def find_t_max(result: SweepResult, rank: int, tau: float) -> int | None:
    """Largest swept load whose mean exact match stays at or above tau;
    None when no swept load qualifies."""
    if rank not in result.grid.ranks:
        raise KeyError(f"rank {rank} not in swept ranks {result.grid.ranks}")
    best = None
    for load in result.grid.loads:
        if result.mean_em(rank, load) >= tau:
            best = load
    return best


def efficiency_curve(result: SweepResult, tau: float) -> dict[int, float]:
    """Supported tokens per trainable parameter, per rank; ranks whose
    smallest load already fails are omitted."""
    curve: dict[int, float] = {}
    for rank in result.grid.ranks:
        t_max = find_t_max(result, rank, tau)
        if t_max is None:
            continue
        curve[rank] = t_max / result.n_params[rank]
    return curve


def _float_str(x: float) -> str:
    return format(x, ".6f")


def results_csv_lines(result: SweepResult, config_echo: dict,
                      version: str) -> list[str]:
    lines = [f"# loramem {version}",
             f"# config {json.dumps(config_echo, sort_keys=True)}",
             "rank,load_tokens,seed,em,n_params"]
    for rank in result.grid.ranks:
        for load in result.grid.loads:
            for seed in result.grid.seeds:
                em = result.cells[(rank, load, seed)]
                lines.append(
                    f"{rank},{load},{seed},{_float_str(em)},{result.n_params[rank]}")
    return lines


def efficiency_csv_lines(result: SweepResult, tau: float, config_echo: dict,
                         version: str) -> list[str]:
    lines = [f"# loramem {version}",
             f"# config {json.dumps(config_echo, sort_keys=True)}",
             "rank,t_max,n_params,efficiency"]
    curve = efficiency_curve(result, tau)
    for rank in result.grid.ranks:
        t_max = find_t_max(result, rank, tau)
        t_str = "" if t_max is None else str(t_max)
        eff = "" if rank not in curve else _float_str(curve[rank])
        lines.append(f"{rank},{t_str},{result.n_params[rank]},{eff}")
    return lines
