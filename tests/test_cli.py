import csv
import json
import os
import warnings
from dataclasses import asdict, replace

import pytest

from lmg_adiabat import cli, protocols
from lmg_adiabat.errors import ParseError, RegimeWarning, ValidationError
from lmg_adiabat.dynamics import DriveSchedule
from lmg_adiabat.protocols import preset
from lmg_adiabat.sweep import SweepGrid


def test_parse_frequency_units():
    assert protocols.parse_frequency(1e-4) == 1e-4
    assert protocols.parse_frequency("1.0kHz") == pytest.approx(1e-4)
    assert protocols.parse_frequency("0.5 kHz") == pytest.approx(5e-5)
    assert protocols.parse_frequency("11MHz") == pytest.approx(1.1)
    assert protocols.parse_frequency("-1.1") == -1.1
    with pytest.raises(ParseError):
        protocols.parse_frequency("fast")


def test_defaulted_case_one_preset():
    cfg = cli.parse_config(overrides=["case=I", "n_spins=4"])
    assert cfg == preset("I", 4)
    assert cfg.delta == -1.1
    assert cfg.t_final == 4000.0
    assert cfg.gamma_dep == 0.0


def test_gamma_khz_conversion():
    cfg = cli.parse_config(overrides=["gamma_dep=1.0kHz"])
    assert cfg.gamma_dep == pytest.approx(1e-4)


def test_parity_validation_exit_code(tmp_path, capsys):
    code = cli.main(["simulate", "--set", "case=II", "--set", "n_spins=4",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "invalid config" in capsys.readouterr().err


def test_unknown_field_rejected():
    with pytest.raises(ValidationError, match="unknown config fields"):
        cli.parse_config(overrides=["coupling_strength=0.1"])


@pytest.mark.parametrize("case,n,mag", [("I", 4, 1.1), ("II", 3, 1.1), ("III", 4, 1.1),
                                        ("I", 4, 0.9)])
def test_config_round_trip(case, n, mag, tmp_path):
    cfg = preset(case, n, detuning_magnitude=mag, gamma=1e-4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cli.build_manifest("simulate", cfg)["config"]))
    assert cli.parse_config(str(path)) == cfg


def test_set_dotted_schedule_override():
    cfg = cli.parse_config(overrides=["schedule.ramp2=700", "schedule.zeta=0.25"])
    assert cfg.schedule.ramp2 == 700.0
    assert cfg.schedule.zeta == 0.25
    # each field is laid over the calibrated default, or the schedule --schedule names
    calibrated = preset("I")
    assert (cli.parse_config(overrides=["schedule.dzeta2=0.015"])
            == replace(calibrated, schedule=calibrated.schedule.with_dispersion(0.0, 0.015)))
    literal = preset("I", schedule="literal")
    assert (cli.parse_config(overrides=["schedule.zeta=0.25"], schedule_kind="literal")
            == replace(literal, schedule=replace(literal.schedule, zeta=0.25)))


def test_schedule_flag_selects_literal():
    cfg = cli.parse_config(overrides=[], schedule_kind="literal")
    assert cfg.schedule.t0_1 == 0.0 and cfg.schedule.ramp2 == 1500.0


@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_unset_fields_take_the_case_preset(case):
    assert cli.parse_config(overrides=[f"case={case}"]) == preset(case)
    assert (cli.parse_config(overrides=[f"case={case}"], schedule_kind="literal")
            == preset(case, schedule="literal"))


def test_schedule_name_that_is_not_a_kind_is_rejected():
    # the CLI and preset resolve their settings the same way, so they fail the same way
    message = (r"schedule must be one of \('calibrated', 'literal'\) or a field mapping, "
               r"got 'slow'")
    with pytest.raises(ValidationError, match=message):
        cli.parse_config(overrides=["schedule=slow"])
    with pytest.raises(ValidationError, match=message):
        preset("I", schedule="slow")


def test_sweep_section_builds_grid():
    cfg = cli.parse_config(overrides=[
        "case=I", 'sweep={"axes": {"gamma_dep": [0, "0.1kHz", ["1kHz", "1kHz", 0, 0]]}}'])
    assert isinstance(cfg, SweepGrid)
    # the grid keeps the settings without the sweep section, and resolves them as its base
    assert cfg.settings == {"case": "I"}
    assert cfg.base == preset("I")
    assert cfg.axes[0][0] == "gamma_dep"
    assert cfg.axes[0][1][1] == pytest.approx(1e-5)
    # a per-spin list on an axis is converted like the same list in the base config
    base = cli.parse_config(overrides=['gamma_dep=["1kHz", "1kHz", 0, 0]'])
    assert cfg.axes[0][1][2] == base.gamma_dep == pytest.approx((1e-4, 1e-4, 0.0, 0.0))
    assert cfg.config_at({"gamma_dep": cfg.axes[0][1][2]}) == base


@pytest.mark.parametrize("base,axis,values", [
    (["n_spins=4"], "case", ["I", "III"]),
    ([], "t_final", [2000, 4000]),
    (["disorder=[0.1,0,0,0]"], "lambda_over_nu", [0.1, 0.2]),
    ([], "schedule", ["calibrated", "literal"]),
    (["t_final=2000"], "schedule", [{"ramp2": 700, "zeta": 0.25}]),
    ([], "detuning_magnitude", [0.9, 1.3]),
    (["n_spins=4"], "gamma_dep", [0, "0.5kHz", ["1kHz", 0, "2 kHz", 0]]),
    ([], "delta", [-1.3, "11MHz"]),
    (["delta=-1.1", "n_spins=4"], "case", ["I", "III"]),
    (["t_final=2000"], "schedule.dzeta2", [0.0, 0.015]),
    (["lambda_over_nu=0.05"], "disorder",
     [None, [0.1, 0, 0, 0], {"fractions": [0, 0.1, 0, 0], "label": "x"}]),
], ids=["case", "t_final", "lambda-with-fraction-disorder", "schedule-names",
        "schedule-mapping", "detuning_magnitude", "gamma_dep-si-and-per-spin", "delta",
        "explicit-delta-wins", "schedule-field", "disorder"])
def test_sweep_point_resolves_as_simulate_does(base, axis, values):
    # every point is the config that simulate builds from the same settings
    grid = cli.parse_config(overrides=[*base, "sweep=" + json.dumps({"axes": {axis: values}})])
    points = grid.points()
    assert len(points) == len(values)
    for point, value in zip(points, values):
        alone = cli.parse_config(overrides=[*base, f"{axis}={json.dumps(value)}"])
        assert grid.config_at(point) == alone


def test_sweep_over_cases_matches_simulate_bit_for_bit(tmp_path):
    # case III's point takes case III's detuning sign, as simulate does
    assert cli.main(["sweep", "--set", "n_spins=4",
                     "--set", 'sweep={"axes": {"case": ["I", "III"]}}',
                     "--out", str(tmp_path / "sweep")]) == 0
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["case"] for row in rows] == ["I", "III"]
    for row in rows:
        out = tmp_path / row["case"]
        assert cli.main(["simulate", "--set", f"case={row['case']}", "--set", "n_spins=4",
                         "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert row["pop_final"] == last["pop_target"]  # shortest round-trip text: same bits
        assert float(row["pop_final_phase_opt"]) > 0.999


def test_dotted_schedule_axis_over_a_named_schedule(tmp_path):
    # a schedule.<field> axis sets that field of the schedule --schedule names
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        assert cli.main(["sweep", "--schedule", "literal", "--set", "n_spins=3",
                         "--set", "t_final=300", "--set", "n_samples=11",
                         "--set", 'sweep={"axes": {"schedule.zeta": [0.25, 0.3]}}',
                         "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]
    grid = cli.parse_config(overrides=[
        "n_spins=3", 'sweep={"axes": {"schedule.zeta": [0.25]}}'], schedule_kind="literal")
    literal = preset("I", 3, schedule="literal")
    assert grid.config_at(grid.points()[0]) == replace(
        literal, schedule=replace(literal.schedule, zeta=0.25))


@pytest.mark.parametrize("field", ["n_spins", "n_samples"])
def test_non_integral_count_is_invalid_config(field, tmp_path, capsys):
    # a count with a fractional part is refused, on an axis too; an integral 4.0 is 4
    assert cli.main(["simulate", "--set", f"{field}=4.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid config: {field}: cannot use 4.5 ")
    sweep = "sweep=" + json.dumps({"axes": {field: [4, 4.5]}})
    assert cli.main(["sweep", "--set", sweep, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"invalid config: sweep axis {field}: cannot use 4.5 ")
    assert not (tmp_path / "trajectory.csv").exists() and not (tmp_path / "sweep.csv").exists()
    value = getattr(cli.parse_config(overrides=[f"{field}=4.0"]), field)
    assert value == 4 and type(value) is int


@pytest.mark.parametrize("override", [
    'disorder={"eta":0.1}',
    'n_spins="x"',
    'disorder=[0.1,"a"]',
    'schedule={"ramp1":-1}',
    'disorder=[0.9,0,0,0]',
    't_final=nan',
    't_final=inf',
    'schedule={"zeta":NaN}',
    'schedule={"ramp1":NaN}',
    'schedule={"t0_2":Infinity}',
], ids=["disorder-no-fractions", "n_spins-text", "disorder-text", "negative-ramp",
        "disorder-too-large", "t_final-nan", "t_final-inf", "zeta-nan", "ramp-nan", "t0-inf"])
def test_malformed_config_value_is_invalid_config(override, tmp_path, capsys):
    code = cli.main(["simulate", "--set", override, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: " + override.partition("=")[0] + ": ")


@pytest.mark.parametrize("override", [
    "step=nan",
    "step=inf",
    "gamma_dep=nan",
    'gamma_dep=[0,"1kHz",NaN,0]',
    "lambda_over_nu=nan",
    "delta=nan",
    "delta=-inf",
    "nbar=nan",
    "nbar=-1",
])
def test_config_number_out_of_range_is_invalid_config(override, tmp_path, capsys):
    # nan, the infinities and a negative nbar, checked by ScenarioConfig itself,
    # whose message names the field first
    code = cli.main(["simulate", "--set", "n_spins=4", "--set", "t_final=10",
                     "--set", override, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: " + override.partition("=")[0] + " ")
    assert "must be finite" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("step", ["1e-300", "1e-290", "1e-16", "5e-13", "3e-6"])
def test_step_count_beyond_int64_is_invalid_config(step, tmp_path, capsys):
    # t_final / step may be at most MAX_STEPS = 1e9 steps.  A count past int64
    # used to overflow np.linspace in the sample grid and exit 1 with a
    # traceback, and 5e-13 (8e15 steps) used to run until it was killed; 3e-6
    # is 1.3e9 steps over the preset window, just past the limit
    code = cli.main(["simulate", "--set", "case=I", "--set", "n_spins=2",
                     "--set", f"step={step}", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: step ")
    assert "above the step limit (1e+09)" in err and "Traceback" not in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--cutoff", "2", "fock_cutoff"),
    ("--cutoff", "0", "fock_cutoff"),
    ("--cutoff", "-1", "fock_cutoff"),
    ("--window", "0", "t_final"),
    ("--window", "-5", "t_final"),
    ("--window", "nan", "t_final"),
    ("--window", "inf", "t_final"),
    ("--window", "1e300", "t_final"),
])
def test_reduction_flag_out_of_range_is_invalid_config(flag, value, field, tmp_path, capsys):
    # the flags of validate-reduction are checked like the config fields: exit 2, no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["validate-reduction", "--set", "case=I", "--set", "n_spins=2",
                         flag, value, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ")
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "reduction.csv").exists()


def _simulate_args(tmp_path, extra=()):
    return [
        "simulate",
        "--set", "case=I", "--set", "n_spins=2", "--set", "t_final=120",
        "--set", "n_samples=5",
        "--out", str(tmp_path),
        *extra,
    ]


def test_simulate_end_to_end(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        code = cli.main(_simulate_args(tmp_path))
    assert code == 0
    csv_path = tmp_path / "trajectory.csv"
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == cli.TRAJECTORY_HEADER
    assert len(lines) == 6  # header + 5 samples
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "lmg-adiabat"
    assert manifest["config"]["case"] == "I"
    assert manifest["backend"] == "numpy"
    diagnostics = manifest["diagnostics"]
    assert set(diagnostics) == {"n_steps", "integrated_dim", "integrated_basis",
                                "max_trace_defect", "max_hermiticity_defect",
                                "population_excursion", "min_eigenvalue"}
    assert diagnostics["n_steps"] == 120  # t_final 120 at the default step 1.0
    # the parity block of N = 2 (dim 4): the invariant subspace is no smaller
    assert (diagnostics["integrated_dim"], diagnostics["integrated_basis"]) == (2, "basis states")
    assert diagnostics["max_trace_defect"] <= 1e-8
    assert abs(diagnostics["min_eigenvalue"]) <= 1e-6  # a pure state stays (nearly) pure
    assert "final population" in capsys.readouterr().out
    # atomic writes leave no temp files behind
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_simulate_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        assert cli.main(_simulate_args(out1)) == 0
        assert cli.main(_simulate_args(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_header_only_trajectory():
    # an empty trajectory serializes to just the header line
    import dataclasses as dc

    cfg = preset("I", 2, t_final=120.0, n_samples=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        from lmg_adiabat.protocols import run_scenario

        run = run_scenario(cfg)
    empty = dc.replace(run, trajectory=dc.replace(
        run.trajectory,
        times=run.trajectory.times[:0],
        purity=run.trajectory.purity[:0],
        trace_defect=run.trajectory.trace_defect[:0],
        hermiticity_defect=run.trajectory.hermiticity_defect[:0],
        gap=run.trajectory.gap[:0],
    ), pop_target=run.pop_target[:0], pop_target_phase_opt=run.pop_target_phase_opt[:0],
        omega1=run.omega1[:0], omega2=run.omega2[:0])
    assert cli.trajectory_csv_text(empty) == cli.TRAJECTORY_HEADER + "\n"


def test_sweep_cli_partial_failure(tmp_path):
    config = {
        "case": "I", "n_spins": 2, "t_final": 120, "n_samples": 5,
        "sweep": {"axes": {"delta": [-1.1, 1.0]}},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path),
                         "--parallel", "2"])
    assert code == 1  # one resonant point fails
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,pop_final,pop_final_phase_opt,gap_min,trace_defect_max,status,error"
    assert lines[1].startswith("-1.1,") and ",ok," in lines[1]
    assert lines[2].startswith("1.0,") and ",error," in lines[2]
    sidecar = json.loads((tmp_path / "sweep_diagnostics.json").read_text())
    ok, failed = sidecar["points"]
    assert (ok["index"], ok["status"], failed["index"], failed["status"]) == (0, "ok", 1, "error")
    assert ok["wall_time"] > 0 and failed["wall_time"] >= 0
    assert ok["diagnostics"]["n_steps"] == 120 and ok["diagnostics"]["integrated_dim"] == 2
    assert ok["diagnostics"]["min_eigenvalue"] is None  # sweeps store no states
    assert failed["diagnostics"] == {}


def test_sweep_cli_worker_invariance(tmp_path):
    config = {
        "case": "I", "n_spins": 2, "t_final": 120, "n_samples": 5,
        "sweep": {"axes": {"gamma_dep": [0.0, 5e-5, 1e-4]}},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    texts, sidecars = [], []
    for sub, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / sub
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--parallel", workers]) == 0
        texts.append((out / "sweep.csv").read_bytes())
        points = json.loads((out / "sweep_diagnostics.json").read_text())["points"]
        sidecars.append([{k: v for k, v in p.items() if k != "wall_time"} for p in points])
    assert texts[0] == texts[1]
    assert sidecars[0] == sidecars[1]
    assert [p["index"] for p in sidecars[0]] == [0, 1, 2]


def test_sweep_records_its_axes_and_each_points_config(tmp_path):
    # the README schedule-axis sweep: the manifest names the axes, and each
    # point's sidecar entry holds the config it ran, which the CSV leaves out
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # the literal envelopes end elsewhere
        code = cli.main(["sweep", "--set", "case=I", "--set", "n_spins=3", "--set",
                         'sweep={"axes": {"schedule": ["calibrated", "literal"]}}',
                         "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["axes"] == [{"name": "schedule", "values": ["calibrated", "literal"]}]
    calibrated, literal = json.loads((tmp_path / "sweep_diagnostics.json").read_text())["points"]
    assert calibrated["config"] == manifest["config"]
    assert literal["config"]["schedule"] == asdict(DriveSchedule())
    assert literal["config"]["schedule"] != calibrated["config"]["schedule"]
    assert {k: v for k, v in literal["config"].items() if k != "schedule"} == \
        {k: v for k, v in calibrated["config"].items() if k != "schedule"}
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "schedule,pop_final,pop_final_phase_opt,gap_min,trace_defect_max,status,error"


@pytest.mark.parametrize("command", ["simulate", "spectrum", "classify", "validate-reduction"])
def test_parallel_flag_is_only_for_sweep(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--parallel", "2", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err


def test_spectrum_names_polarized_ground(tmp_path, capsys):
    code = cli.main(["spectrum", "--set", "case=I", "--set", "n_spins=4",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "↑↑↑↑" in out  # |↑↑↑↑>
    assert "isotropic" in out
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "m,energy_nu"
    assert len(lines) == 6  # header + N+1 levels


def test_classify_one_axis_x(tmp_path, capsys):
    code = cli.main([
        "classify",
        "--set", 'schedule={"zeta": 0.3, "ramp1": 2000, "ramp2": 2000, "dzeta2": -0.6}',
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "one-axis-x" in out
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["final"]["form"] == "one-axis-x"


def test_validate_reduction_cli(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main([
            "validate-reduction",
            "--set", "case=I", "--set", "n_spins=1",
            "--cutoff", "3", "--window", "40",
            "--out", str(tmp_path),
        ])
    assert code == 0
    summary = json.loads((tmp_path / "reduction.json").read_text())
    assert summary["fock_cutoff"] == 3
    assert summary["solver"] == "rotating-frame"
    lines = (tmp_path / "reduction.csv").read_text().splitlines()
    assert lines[0] == "t_nu,jz_full,jz_effective,pop_full,pop_effective"


def test_missing_config_file_is_parse_error(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"case": "I",}')
    with pytest.raises(ParseError, match="line"):
        cli.parse_config(str(path))


def _per_value_csv_text(header, columns):
    """A CSV written one numpy scalar at a time through ``cli._fmt``."""
    rows = [",".join(cli._fmt(column[i]) for column in columns) for i in range(len(columns[0]))]
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("record_gap", [False, True], ids=["nan-gap", "gap"])
def test_csv_texts_match_the_per_value_formatting(record_gap):
    import types

    import numpy as np

    from lmg_adiabat.protocols import run_scenario

    cfg = preset("I", 3, gamma=1e-4, t_final=40.0, n_samples=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # a short sweep
        run = run_scenario(cfg, record_gap=record_gap)
    traj = run.trajectory
    gap = traj.gap if record_gap else np.full(traj.times.size, np.nan)
    text = cli.trajectory_csv_text(run)
    assert text == _per_value_csv_text(cli.TRAJECTORY_HEADER, [
        traj.times, run.pop_target, run.pop_target_phase_opt, traj.purity,
        traj.trace_defect, gap, run.omega1, run.omega2])
    assert (",nan," in text) == (not record_gap)
    odd = np.array([0.1, 1.0 / 3.0, -0.0, 1e-300, 2.0**60, np.nan, np.inf])
    report = types.SimpleNamespace(times=np.arange(7.0), jz_full=odd, jz_effective=-odd,
                                   pop_full=odd[::-1].copy(), pop_effective=odd * 3.0)
    assert cli.reduction_csv_text(report) == _per_value_csv_text(
        "t_nu,jz_full,jz_effective,pop_full,pop_effective",
        [report.times, odd, -odd, odd[::-1], odd * 3.0])
