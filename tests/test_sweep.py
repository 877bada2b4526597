import warnings

import numpy as np
import pytest

from lmg_adiabat.errors import RegimeWarning, UnknownAxisError, ValidationError
from lmg_adiabat.protocols import preset, run_scenario
from lmg_adiabat.sweep import SweepGrid, aggregate, run_sweep


def small_grid(**axes):
    base = preset("I", 3, t_final=300.0, n_samples=11)
    return SweepGrid(base=base, axes=tuple(axes.items()))


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
    base = preset("I", 3)
    grid = SweepGrid(base=base, axes=(("gamma_dep", (0.0, 1e-5, 5e-5, 1e-4)),))
    table = run_sweep(grid, parallelism=2)
    pops = [r.pop_final for r in table.rows]
    assert all(a > b for a, b in zip(pops, pops[1:]))


def test_worker_count_invariance():
    grid = small_grid(gamma_dep=(0.0, 5e-5), delta=(-1.1, -1.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        t1 = run_sweep(grid, parallelism=1)
        t4 = run_sweep(grid, parallelism=4)
    from lmg_adiabat.cli import sweep_csv_text

    assert sweep_csv_text(t1) == sweep_csv_text(t4)


def test_grid_order_last_axis_fastest():
    grid = small_grid(gamma_dep=(0.0, 1e-5), delta=(-1.1, -1.3))
    points = grid.points()
    assert [p["delta"] for p in points] == [-1.1, -1.3, -1.1, -1.3]
    assert [p["gamma_dep"] for p in points] == [0.0, 0.0, 1e-5, 1e-5]


def test_dotted_schedule_axis():
    grid = small_grid(**{"schedule.dzeta2": (0.0, 0.015)})
    cfg = grid.config_at(grid.points()[1])
    assert cfg.schedule.dzeta2 == 0.015


def test_disorder_axis_accepts_fraction_lists():
    grid = small_grid(disorder=(None, (0.05, 0.05, 0.04)))
    cfg = grid.config_at(grid.points()[1])
    assert cfg.disorder is not None
    assert cfg.disorder.fractions == (0.05, 0.05, 0.04)


def test_grid_validation():
    with pytest.raises(ValidationError):
        small_grid(not_a_field=(1, 2))
    with pytest.raises(ValidationError):
        small_grid(gamma_dep=())
    base = preset("I", 3, t_final=200.0)
    with pytest.raises(ValidationError):
        SweepGrid(base=base, axes=(("gamma_dep", tuple(np.linspace(0, 1e-4, 7))),),
                  max_points=5)


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


def test_aggregate_global_and_grouped():
    grid = small_grid(gamma_dep=(0.0, 1e-4), delta=(-1.1, -1.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid, parallelism=2)
    (overall,) = aggregate(table)
    assert overall.count == 4 and overall.n_failed == 0
    assert overall.pop_min <= overall.pop_mean <= overall.pop_max

    by_gamma = aggregate(table, ["gamma_dep"])
    assert [row.group["gamma_dep"] for row in by_gamma] == ["0.0", "0.0001"]
    assert all(row.count == 2 for row in by_gamma)

    single = small_grid(gamma_dep=(0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        t1 = run_sweep(single)
    (row,) = aggregate(t1, ["gamma_dep"])
    assert row.pop_min == row.pop_max == row.pop_mean == t1.rows[0].pop_final


def test_aggregate_disorder_levels_against_baseline():
    # twelve reference profiles labeled by their disorder level collapse to
    # four aggregate rows, each mean within 0.02 of the disorder-free run
    from lmg_adiabat.model import DisorderProfile
    from lmg_adiabat.protocols import REFERENCE_DISORDER_PROFILES

    base = preset("I", 4, detuning_magnitude=0.9)
    levels = {"a": "5%", "b": "10%", "c": "20%", "d": "30%"}
    profiles = tuple(
        DisorderProfile(fractions=f, eta=base.eta, label=levels[label.split("(")[1][0]])
        for label, f in REFERENCE_DISORDER_PROFILES
    )
    grid = SweepGrid(base=base, axes=(("disorder", profiles),))
    table = run_sweep(grid, parallelism=4)
    baseline = run_scenario(base, store_states=False).final_population
    rows = aggregate(table, ["disorder"])
    assert [r.group["disorder"] for r in rows] == ["5%", "10%", "20%", "30%"]
    assert all(r.count == 3 for r in rows)
    for r in rows:
        assert abs(r.pop_mean - baseline) <= 0.02


def test_env_thread_fallback(monkeypatch):
    from lmg_adiabat.protocols import ENV_THREADS, _resolve_workers

    monkeypatch.delenv(ENV_THREADS, raising=False)
    assert _resolve_workers(None) == 1
    assert _resolve_workers(3) == 3
    monkeypatch.setenv(ENV_THREADS, "4")
    assert _resolve_workers(None) == 4
    monkeypatch.setenv(ENV_THREADS, "one")
    with pytest.raises(ValidationError):
        _resolve_workers(None)


def test_aggregate_unknown_axis():
    grid = small_grid(gamma_dep=(0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        table = run_sweep(grid)
    with pytest.raises(UnknownAxisError):
        aggregate(table, ["delta"])
