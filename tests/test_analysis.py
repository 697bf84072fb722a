import pytest

from loramem import analysis, memlab
from loramem.analysis import SweepGrid, SweepResult, efficiency_curve, find_t_max, run_sweep
from loramem.memlab import TrainConfig


def synthetic_result(ems_by_rank_load, ranks, loads, seeds=(1,),
                     d_in=256) -> SweepResult:
    cells = {}
    for r in ranks:
        for load in loads:
            for s in seeds:
                cells[(r, load, s)] = ems_by_rank_load[(r, load)]
    n_params = {r: r * (d_in + memlab.D_OUT) for r in ranks}
    grid = SweepGrid(ranks=tuple(ranks), loads=tuple(loads),
                     seeds=tuple(seeds), tau=0.9)
    return SweepResult(grid=grid, cells=cells, n_params=n_params, d_in=d_in)


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(ranks=())
    with pytest.raises(ValueError):
        SweepGrid(loads=(100, 100))
    with pytest.raises(ValueError):
        SweepGrid(ranks=(4, 2))
    with pytest.raises(ValueError):
        SweepGrid(tau=0.0)
    with pytest.raises(ValueError, match="seeds"):
        SweepGrid(seeds=(1, 2, 1))


def test_grid_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="rank"):
        SweepGrid.from_json({"rank": [2]})
    grid = SweepGrid.from_json({"ranks": [2], "loads": [16], "seeds": [1],
                                "tau": 0.5, "base": {"steps": 10}})
    assert (grid.ranks, grid.loads, grid.seeds, grid.tau) == \
        ((2,), (16,), (1,), 0.5)


def test_find_t_max_linear_scan_oracle():
    res = synthetic_result({(4, 1000): 0.99, (4, 2000): 0.95, (4, 3000): 0.60},
                           ranks=[4], loads=[1000, 2000, 3000])
    assert find_t_max(res, 4, 0.9) == 2000


def test_find_t_max_boundaries():
    all_pass = synthetic_result({(4, L): 0.95 for L in (1, 2, 3)},
                                ranks=[4], loads=[1, 2, 3])
    assert find_t_max(all_pass, 4, 0.9) == 3
    all_fail = synthetic_result({(4, L): 0.1 for L in (1, 2, 3)},
                                ranks=[4], loads=[1, 2, 3])
    assert find_t_max(all_fail, 4, 0.9) is None


def test_find_t_max_unknown_rank():
    res = synthetic_result({(4, 1): 1.0}, ranks=[4], loads=[1])
    with pytest.raises(KeyError):
        find_t_max(res, 7, 0.9)


def test_find_t_max_monotone_in_tau():
    res = synthetic_result({(4, 1000): 0.99, (4, 2000): 0.92, (4, 3000): 0.85},
                           ranks=[4], loads=[1000, 2000, 3000])
    taus = (0.8, 0.9, 0.95, 0.999)
    t_values = [find_t_max(res, 4, t) or 0 for t in taus]
    assert all(b <= a for a, b in zip(t_values, t_values[1:]))


def test_efficiency_example_value():
    res = synthetic_result({(4, 1024): 0.95, (4, 2048): 0.5},
                           ranks=[4], loads=[1024, 2048])
    curve = efficiency_curve(res, 0.9)
    assert curve[4] == pytest.approx(1024 / 1424)


def test_efficiency_halves_when_params_double():
    res = synthetic_result({(4, 1024): 0.95, (8, 1024): 0.95},
                           ranks=[4, 8], loads=[1024])
    curve = efficiency_curve(res, 0.9)
    assert curve[8] == pytest.approx(curve[4] / 2)


def test_efficiency_omits_unsupported_ranks():
    res = synthetic_result({(2, 100): 0.1, (4, 100): 0.95},
                           ranks=[2, 4], loads=[100])
    assert set(efficiency_curve(res, 0.9)) == {4}


def test_efficiency_depends_only_on_selected_load():
    # any order-preserving relabeling of loads that keeps the selected
    # t_max value gives the same efficiency
    res_a = synthetic_result({(4, 1000): 0.95, (4, 9000): 0.1},
                             ranks=[4], loads=[1000, 9000])
    res_b = synthetic_result({(4, 1000): 0.95, (4, 1001): 0.1},
                             ranks=[4], loads=[1000, 1001])
    assert efficiency_curve(res_a, 0.9)[4] == efficiency_curve(res_b, 0.9)[4]


def test_degenerate_grid_reduces_to_single_train_eval():
    grid = SweepGrid(ranks=(8,), loads=(150,), seeds=(3,), tau=0.9)
    base = TrainConfig(steps=300)
    result = run_sweep(grid, base)
    assert set(result.cells) == {(8, 150, 3)}

    records = analysis._source_records(base, 150)
    ds = memlab.slice_by_budget(records, 150)
    cfg = TrainConfig(rank=8, alpha=8.0, learning_rate=base.learning_rate,
                      steps=base.steps, batch_size=base.batch_size, seed=3,
                      init_stddev=base.init_stddev)
    direct = memlab.evaluate(memlab.train(ds, cfg).model, ds)
    assert result.cells[(8, 150, 3)] == direct


def test_sweep_divergence_carries_cell_coordinates():
    grid = SweepGrid(ranks=(8,), loads=(150,), seeds=(3,), tau=0.9)
    base = TrainConfig(steps=3000, learning_rate=50.0)
    with pytest.raises(analysis.SweepError,
                       match=r"rank=8 load=150 seed=3"):
        run_sweep(grid, base)


def test_sweep_deterministic_across_runs():
    grid = SweepGrid(ranks=(2, 8), loads=(16, 150), seeds=(1, 2), tau=0.9)
    base = TrainConfig(steps=200)
    r1 = run_sweep(grid, base)
    r2 = run_sweep(grid, base)
    assert r1.cells == r2.cells


def test_sweep_ordering_high_rank_small_load_beats_low_rank_large_load():
    grid = SweepGrid(ranks=(2, 16), loads=(16, 448), seeds=(1, 2, 3), tau=0.9)
    result = run_sweep(grid, TrainConfig(steps=800))
    assert result.mean_em(16, 16) >= result.mean_em(2, 448)


def test_csv_lines_are_stable():
    res = synthetic_result({(4, 1024): 0.95}, ranks=[4], loads=[1024])
    lines1 = analysis.results_csv_lines(res, {"x": 1}, "0.1.0")
    lines2 = analysis.results_csv_lines(res, {"x": 1}, "0.1.0")
    assert lines1 == lines2
    assert lines1[0].startswith("# loramem")
    assert lines1[2] == "rank,load_tokens,seed,em,n_params"
    eff = analysis.efficiency_csv_lines(res, 0.9, {"x": 1}, "0.1.0")
    assert eff[2] == "rank,t_max,n_params,efficiency"
    assert eff[3] == "4,1024,1424,0.719101"
