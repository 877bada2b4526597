import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lmg_adiabat.cli import sweep_csv_text
from lmg_adiabat.errors import RegimeWarning, ValidationError
from lmg_adiabat.protocols import preset, run_scenario
from lmg_adiabat.sweep import SweepGrid, run_sweep


def small_grid(**axes):
    settings = {"case": "I", "n_spins": 3, "t_final": 300.0, "n_samples": 11}
    return SweepGrid(settings=settings, axes=tuple(axes.items()))


def test_single_point_grid_matches_run_scenario():
    grid = small_grid(gamma_dep=(0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid)
        direct = run_scenario(grid.base, store_states=False)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.status == "ok"
    assert row.pop_final == direct.final_population
    assert row.pop_final_phase_opt == direct.final_population_phase_opt


def test_gamma_axis_strictly_decreasing():
    grid = SweepGrid(settings={"case": "I", "n_spins": 3},
                     axes=(("gamma_dep", (0.0, 1e-5, 5e-5, 1e-4)),))
    table = run_sweep(grid)
    pops = [r.pop_final for r in table.rows]
    assert all(a > b for a, b in zip(pops, pops[1:]))


def test_rows_come_in_grid_order_and_match_their_points_run_alone():
    grid = small_grid(gamma_dep=(0.0, 5e-5), delta=(-1.1, -1.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid)
        alone = [run_scenario(grid.config_at(p), store_states=False) for p in grid.points()]
    assert [r.index for r in table.rows] == [0, 1, 2, 3]
    assert [r.values for r in table.rows] == grid.points()
    assert [(r.pop_final, r.gap_min) for r in table.rows] == [
        (run.final_population, run.min_gap) for run in alone]


def test_grid_order_last_axis_fastest():
    grid = small_grid(gamma_dep=(0.0, 1e-5), delta=(-1.1, -1.3))
    points = grid.points()
    assert [p["delta"] for p in points] == [-1.1, -1.3, -1.1, -1.3]
    assert [p["gamma_dep"] for p in points] == [0.0, 0.0, 1e-5, 1e-5]


def test_dotted_schedule_axis():
    grid = small_grid(**{"schedule.dzeta2": (0.0, 0.015)})
    cfg = grid.config_at(grid.points()[1])
    assert cfg.schedule.dzeta2 == 0.015
    # the field is set on the base's calibrated schedule, not on the DriveSchedule defaults
    base = preset("I", 3, t_final=300.0, n_samples=11)
    assert cfg == replace(base, schedule=base.schedule.with_dispersion(0.0, 0.015))


def test_disorder_axis_accepts_fraction_lists():
    grid = small_grid(disorder=(None, (0.05, 0.05, 0.04)))
    cfg = grid.config_at(grid.points()[1])
    assert cfg.disorder is not None
    assert cfg.disorder.fractions == (0.05, 0.05, 0.04)


def test_disorder_axis_cells_show_the_built_profile():
    # a fraction list prints its fractions as floats, a labelled mapping its label
    grid = small_grid(disorder=(None, [0.1, 0, 0], {"fractions": [0, 0.1, 0], "label": "x"}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        text = sweep_csv_text(run_sweep(grid))
    assert [line.split(",")[0] for line in text.splitlines()] == [
        "disorder", "", "(0.1;0.0;0.0)", "x"]


def test_nan_t_final_axis_value_fails_its_own_point():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(small_grid(t_final=(float("nan"), 300.0)))
    assert [r.status for r in table.rows] == ["error", "ok"]
    assert "t_final: cannot use nan" in table.rows[0].error


def test_grid_validation():
    with pytest.raises(ValidationError):
        small_grid(not_a_field=(1, 2))
    with pytest.raises(ValidationError):
        small_grid(gamma_dep=())
    with pytest.raises(ValidationError):
        SweepGrid(settings={"case": "I", "n_spins": 3, "t_final": 200.0},
                  axes=(("gamma_dep", tuple(np.linspace(0, 1e-4, 7))),), max_points=5)


def test_failed_points_recorded_not_dropped():
    # |delta| = 1 is resonant and must fail at run time, not kill the sweep
    grid = small_grid(delta=(-1.1, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid)
    assert [r.status for r in table.rows] == ["ok", "error"]
    assert "Resonant" in table.rows[1].error
    assert np.isnan(table.rows[1].pop_final)
    assert table.n_failed == 1
    # gamma 0 from |m = -3/2>: the span of the Dicke states m = -3/2 and 1/2
    assert table.rows[0].diagnostics["integrated_dim"] == 2
    assert table.rows[0].diagnostics["integrated_basis"] == "subspace"
    assert table.rows[1].diagnostics == {}


def test_non_finite_axis_value_gives_an_error_row():
    grid = small_grid(gamma_dep=(0.0, float("nan")), **{"schedule.zeta": (0.3, float("inf"))})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid)
    assert [r.status for r in table.rows] == ["ok", "error", "error", "error"]
    assert "gamma_dep must be finite" in table.rows[2].error
    assert "schedule fields must be finite" in table.rows[1].error
    assert table.n_failed == 3


def test_aggregate_disorder_levels_against_baseline():
    # twelve reference profiles, three per disorder level: each level's mean
    # final population is within 0.02 of the disorder-free run
    from lmg_adiabat.model import DisorderProfile
    from lmg_adiabat.protocols import REFERENCE_DISORDER_PROFILES

    base = preset("I", 4, detuning_magnitude=0.9)
    levels = {"a": "5%", "b": "10%", "c": "20%", "d": "30%"}
    profiles = tuple(
        DisorderProfile(fractions=f, eta=base.eta, label=levels[label.split("(")[1][0]])
        for label, f in REFERENCE_DISORDER_PROFILES
    )
    grid = SweepGrid(settings={"case": "I", "n_spins": 4, "detuning_magnitude": 0.9},
                     axes=(("disorder", profiles),))
    assert grid.base == base
    table = run_sweep(grid)
    baseline = run_scenario(base, store_states=False).final_population
    assert [r.status for r in table.rows] == ["ok"] * 12
    by_level = {}
    for r in table.rows:
        by_level.setdefault(r.values["disorder"].label, []).append(r.pop_final)
    assert list(by_level) == ["5%", "10%", "20%", "30%"]
    for pops in by_level.values():
        assert len(pops) == 3
        assert abs(np.mean(pops) - baseline) <= 0.02


def test_a_huge_parallel_value_starts_no_thread(tmp_path, monkeypatch):
    # points run in order on the calling thread; --parallel is accepted and ignored
    import json
    import threading

    from lmg_adiabat import _kernels, cli

    monkeypatch.setattr(_kernels, "GAP_OVERLAP_BYTES", 1 << 62)  # no gap scan is due a thread
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"case": "I", "n_spins": 2, "t_final": 60, "n_samples": 5,
                                "sweep": {"axes": {"gamma_dep": [0.0, 1e-4, 2e-4]}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path),
                         "--parallel", str(10**6)]) == 0
    assert started == []
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the CPU count stands in
    from lmg_adiabat.dynamics import _usable_cpus

    monkeypatch.delattr(os, "sched_getaffinity")
    assert 1 <= _usable_cpus() <= os.cpu_count()


def test_traced_sweep_counts_its_points_as_pool_members(perfbench_tracing):
    # perfbench's traced runs rebind both _pmap seams by name and count their members
    import inspect

    from lmg_adiabat import protocols, sweep

    for owner in (protocols, sweep):
        assert list(inspect.signature(owner._pmap).parameters) == ["fn", "items", "workers"]
    grid = small_grid(delta=(-1.1, 1.0, -1.3))
    tracer = perfbench_tracing.Tracer()
    with warnings.catch_warnings(), perfbench_tracing.installed(tracer):
        warnings.simplefilter("ignore", RegimeWarning)
        table = sweep.run_sweep(grid)
    pool = perfbench_tracing.pool_stats(tracer.spans)
    assert (pool["members"], pool["failed"]) == (3, 1) == (len(table.rows), table.n_failed)

