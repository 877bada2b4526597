"""Command-line front door: JSON configs in, CSV/JSON artifacts out.

Subcommands: ``simulate`` (one scenario trajectory), ``sweep`` (parameter
grid), ``spectrum`` (closed-form isotropic spectrum report), ``classify``
(regime report) and ``validate-reduction`` (full-vs-effective model check).
All frequencies inside the tool are in units of nu; SI suffixes (kHz, MHz)
are accepted at this boundary only and converted at nu/2pi = 10 MHz.
Artifacts are written atomically (temp file + rename) and every output
directory carries a ``manifest.json`` describing the resolved run.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from ._kernels import resolve_backend
from .dynamics import DEFAULT_STEP, DriveSchedule, calibrated_schedule, literal_schedule
from .errors import (
    ConfigError,
    LmgAdiabatError,
    ParityMismatchError,
    ParseError,
    ValidationError,
)
from .model import DisorderProfile, isotropic_spectrum
from .protocols import (
    ReductionReport,
    ScenarioConfig,
    ScenarioRun,
    preset_delta,
    run_scenario,
    validate_effective_reduction,
)
from .sweep import SweepGrid, SweepTable, format_cell, run_sweep

#: nu/2pi used for SI conversion of suffixed frequency strings.
NU_HZ = 10.0e6

TRAJECTORY_HEADER = (
    "t_nu,pop_target,pop_target_phase_opt,purity,trace_defect,gap_nu,omega1_nu,omega2_nu"
)
SWEEP_SUMMARY_COLUMNS = (
    "pop_final",
    "pop_final_phase_opt",
    "gap_min",
    "trace_defect_max",
    "status",
    "error",
)


# ---------------------------------------------------------------------------
# value parsing and config (de)serialization
# ---------------------------------------------------------------------------

def parse_frequency(value: Union[str, float, int]) -> float:
    """Frequency in nu units; strings may carry a kHz or MHz suffix."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    for suffix, hz in (("kHz", 1.0e3), ("MHz", 1.0e6)):
        if text.lower().endswith(suffix.lower()):
            try:
                return float(text[: -len(suffix)].strip()) * hz / NU_HZ
            except ValueError:
                raise ParseError(f"cannot parse frequency {value!r}")
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse frequency {value!r}")


def parse_gamma(value: Any) -> Union[float, Tuple[float, ...]]:
    """Dephasing rate(s) in nu units: one frequency, or a list of one per spin."""
    if isinstance(value, (list, tuple)):
        return tuple(parse_frequency(g) for g in value)
    return parse_frequency(value)


_SCHEDULE_KINDS = ("calibrated", "literal")

_CONFIG_KEYS = {
    "case",
    "n_spins",
    "lambda_over_nu",
    "delta",
    "detuning_magnitude",
    "schedule",
    "gamma_dep",
    "disorder",
    "t_final",
    "n_samples",
    "nbar",
    "step",
    "sweep",
}


def _schedule_from_value(value: Any, t_final: float) -> DriveSchedule:
    if isinstance(value, DriveSchedule):
        return value
    if isinstance(value, str):
        if value == "calibrated":
            return calibrated_schedule(t_final=t_final)
        if value == "literal":
            return literal_schedule()
        raise ValidationError(
            f"schedule must be one of {_SCHEDULE_KINDS} or a field mapping, got {value!r}"
        )
    if isinstance(value, dict):
        fields = {f.name for f in dataclasses.fields(DriveSchedule)}
        unknown = set(value) - fields
        if unknown:
            raise ValidationError(f"unknown schedule fields: {sorted(unknown)}")
        return DriveSchedule(**{k: float(v) for k, v in value.items()})
    raise ValidationError(f"cannot build a schedule from {value!r}")


def _disorder_from_value(value: Any, eta: float) -> Optional[DisorderProfile]:
    if value is None or isinstance(value, DisorderProfile):
        return value
    if isinstance(value, dict):
        return DisorderProfile(
            fractions=tuple(float(f) for f in value["fractions"]),
            eta=float(value.get("eta", eta)),
            label=str(value.get("label", "")),
        )
    if isinstance(value, (list, tuple)):
        return DisorderProfile(fractions=tuple(float(f) for f in value), eta=eta)
    raise ValidationError(f"cannot build a disorder profile from {value!r}")


def _finite(value: Any) -> float:
    """``float(value)``, refusing nan and the infinities."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _coerce(name: str, value: Any, build: Callable[[Any], Any]) -> Any:
    """``build(value)``, with a failure reported as a ValidationError naming the field."""
    try:
        return build(value)
    except LmgAdiabatError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(
            f"{name}: cannot use {value!r} ({type(exc).__name__}: {exc})"
        ) from exc


def config_from_dict(data: Dict[str, Any]) -> Union[ScenarioConfig, SweepGrid]:
    """Build a validated scenario (or sweep grid) from a plain mapping.

    Unset fields fall back to the case preset defaults; ``delta`` may be given
    signed, or left to the preset sign rule via ``detuning_magnitude``.  A
    value that cannot be converted raises :class:`ValidationError` naming
    its field.
    """
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    def field(name: str, default: Any, build: Callable[[Any], Any]) -> Any:
        return _coerce(name, data.get(name, default), build)

    case = field("case", "I", lambda v: str(v).upper())
    default_n = {"I": 4, "II": 3, "III": 4}.get(case, 4)
    # checked here: the calibrated schedule is built from it before ScenarioConfig checks it
    t_final = field("t_final", 4000.0, _finite)
    if "delta" in data:
        delta = field("delta", None, parse_frequency)
    else:
        delta = preset_delta(case, field("detuning_magnitude", 1.1, float))
    lam = field("lambda_over_nu", 0.1, float)
    cfg = ScenarioConfig(
        case=case,
        n_spins=field("n_spins", default_n, int),
        lambda_over_nu=lam,
        delta=delta,
        schedule=field("schedule", "calibrated", lambda v: _schedule_from_value(v, t_final)),
        gamma_dep=field("gamma_dep", 0.0, parse_gamma),
        disorder=field("disorder", None, lambda v: _disorder_from_value(v, lam)),
        t_final=t_final,
        n_samples=field("n_samples", 401, int),
        nbar=field("nbar", 20.0, float),
        step=field("step", DEFAULT_STEP, float),
    )

    if "sweep" not in data:
        return cfg
    spec = data["sweep"]
    if not isinstance(spec, dict) or "axes" not in spec:
        raise ValidationError("sweep section must be a mapping with an 'axes' entry")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    for name, values in spec["axes"].items():
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"sweep axis {name!r} must list its values")
        build = {
            "gamma_dep": parse_gamma,
            "delta": parse_frequency,
            "disorder": lambda v: _disorder_from_value(v, cfg.eta),
        }.get(name, lambda v: v)
        axes.append((str(name), tuple(_coerce(f"sweep axis {name}", v, build) for v in values)))
    return SweepGrid(
        base=cfg,
        axes=tuple(axes),
        output_path=spec.get("output_path"),
        max_points=_coerce("sweep.max_points", spec.get("max_points", 10_000), int),
    )


def serialize_config(cfg: ScenarioConfig) -> Dict[str, Any]:
    """Plain-JSON mapping; ``config_from_dict`` round-trips it exactly."""
    out: Dict[str, Any] = {
        "case": cfg.case,
        "n_spins": cfg.n_spins,
        "lambda_over_nu": cfg.lambda_over_nu,
        "delta": cfg.delta,
        "schedule": dataclasses.asdict(cfg.schedule),
        "gamma_dep": list(cfg.gamma_dep) if isinstance(cfg.gamma_dep, tuple) else cfg.gamma_dep,
        "t_final": cfg.t_final,
        "n_samples": cfg.n_samples,
        "nbar": cfg.nbar,
        "step": cfg.step,
    }
    if cfg.disorder is not None:
        out["disorder"] = {
            "fractions": list(cfg.disorder.fractions),
            "eta": cfg.disorder.eta,
            "label": cfg.disorder.label,
        }
    else:
        out["disorder"] = None
    return out


def _set_deep(data: Dict[str, Any], dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ParseError(f"--set {dotted}: {key!r} is not a section")
    node[keys[-1]] = value


def parse_config(
    path: Optional[str] = None,
    overrides: Sequence[str] = (),
    schedule_kind: Optional[str] = None,
) -> Union[ScenarioConfig, SweepGrid]:
    """Load and validate a JSON config file plus repeatable key=value overrides."""
    data: Dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"config {path} line {exc.lineno}: {exc.msg}")
        if not isinstance(data, dict):
            raise ParseError(f"config {path} must contain a JSON object")
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParseError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_deep(data, key.strip(), value)
    if schedule_kind is not None:
        data["schedule"] = schedule_kind
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float."""
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header: str, columns) -> str:
    """CSV of equal-length float columns, each value as its shortest round-trip decimal.

    The rows come from one ``tolist`` pass, so every value is a Python float
    and ``repr`` gives the same text as :func:`_fmt` of the numpy scalar.
    """
    rows = np.column_stack(columns).tolist()
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def trajectory_csv_text(run: ScenarioRun) -> str:
    traj = run.trajectory
    gap = traj.gap if traj.gap is not None else np.full(traj.times.size, float("nan"))
    return _csv_text(TRAJECTORY_HEADER, [
        traj.times, run.pop_target, run.pop_target_phase_opt, traj.purity,
        traj.trace_defect, gap, run.omega1, run.omega2,
    ])


def sweep_csv_text(table: SweepTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table.axes) + list(SWEEP_SUMMARY_COLUMNS))
    for row in table.rows:
        writer.writerow(
            [format_cell(row.values[name]) for name in table.axes]
            + [
                _fmt(row.pop_final),
                _fmt(row.pop_final_phase_opt),
                _fmt(row.gap_min),
                _fmt(row.trace_defect_max),
                row.status,
                row.error,
            ]
        )
    return buf.getvalue()


def reduction_csv_text(report: ReductionReport) -> str:
    return _csv_text("t_nu,jz_full,jz_effective,pop_full,pop_effective", [
        report.times, report.jz_full, report.jz_effective, report.pop_full,
        report.pop_effective,
    ])


def write_csv(result: Union[ScenarioRun, SweepTable, ReductionReport], path: str) -> None:
    """Serialize a result to CSV at ``path`` (atomic; LF newlines)."""
    if isinstance(result, ScenarioRun):
        _atomic_write(path, trajectory_csv_text(result))
    elif isinstance(result, SweepTable):
        _atomic_write(path, sweep_csv_text(result))
    elif isinstance(result, ReductionReport):
        _atomic_write(path, reduction_csv_text(result))
    else:
        raise TypeError(f"cannot write {type(result).__name__} as CSV")


def build_manifest(command: str, cfg: ScenarioConfig) -> Dict[str, Any]:
    return {
        "tool": "lmg-adiabat",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "units_note": "frequencies in units of nu (nu = 1); SI conversion at nu/2pi = 10 MHz",
        "backend": resolve_backend(),
        "config": serialize_config(cfg),
    }


def write_manifest(manifest: Dict[str, Any], out_dir: str) -> None:
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def write_sweep_diagnostics(table: SweepTable, path: str) -> None:
    """Per-point index, status, wall time and run diagnostics, kept out of the CSV."""
    points = [
        {"index": row.index, "status": row.status, "wall_time": row.wall_time,
         "diagnostics": row.diagnostics}
        for row in table.rows
    ]
    _atomic_write(path, json.dumps({"points": points}, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _regime_lines(label: str, cfg: ScenarioConfig, t: float) -> List[str]:
    regime = cfg.regime_at(t)
    lines = [f"{label}: form={regime.form} magnetism={regime.magnetism}"]
    if regime.prediction is not None:
        pred = regime.prediction
        lines.append(
            f"  ground space: {pred.label} (basis {pred.basis}, "
            f"degeneracy {len(pred.weights)})"
        )
    elif regime.note:
        lines.append(f"  note: {regime.note}")
    return lines


def _cmd_simulate(cfg, args) -> int:
    if isinstance(cfg, SweepGrid):
        raise ValidationError("simulate expects a scenario config, not a sweep grid")
    run = run_scenario(cfg)
    out = args.out
    write_csv(run, os.path.join(out, "trajectory.csv"))
    manifest = build_manifest("simulate", cfg)
    manifest["diagnostics"] = run.trajectory.diagnostics
    write_manifest(manifest, out)
    print(f"case {cfg.case}  N={cfg.n_spins}  delta={cfg.delta:+g}  gamma={cfg.gamma_dep}")
    print(
        f"final population: {run.final_population:.6f}  "
        f"phase-optimized: {run.final_population_phase_opt:.6f}"
    )
    print(
        f"min gap: {run.min_gap:.6g}  adiabatic margin: {run.adiabatic_margin:.3g}  "
        f"max trace defect: {run.max_trace_defect:.3g}"
    )
    print(f"wrote {os.path.join(out, 'trajectory.csv')}")
    return 0


def _cmd_sweep(cfg, args) -> int:
    if not isinstance(cfg, SweepGrid):
        raise ValidationError("sweep expects a config with a 'sweep' section")
    table = run_sweep(cfg)
    out = args.out
    path = cfg.output_path or os.path.join(out, "sweep.csv")
    write_csv(table, path)
    write_sweep_diagnostics(table, os.path.join(os.path.dirname(path), "sweep_diagnostics.json"))
    write_manifest(build_manifest("sweep", cfg.base), out)
    print(f"{len(table.rows)} points, {table.n_failed} failed; wrote {path}")
    return 1 if table.n_failed else 0


def _cmd_spectrum(cfg, args) -> int:
    if isinstance(cfg, SweepGrid):
        cfg = cfg.base
    coeffs = cfg.coefficients_at(0.0)
    alpha_beta_sq = coeffs.alpha * coeffs.omega1**2
    rows = isotropic_spectrum(cfg.n_spins, alpha_beta_sq, coeffs.epsilon)
    lines = ["m,energy_nu"] + [f"{_fmt(m)},{_fmt(e)}" for m, e in rows]
    out = args.out
    _atomic_write(os.path.join(out, "spectrum.csv"), "\n".join(lines) + "\n")
    write_manifest(build_manifest("spectrum", cfg), out)
    print(
        f"single-drive spectrum for N={cfg.n_spins}: alpha*beta^2={alpha_beta_sq:+.6g}, "
        f"epsilon={coeffs.epsilon:+.6g}"
    )
    for line in _regime_lines("regime at t=0", cfg, 0.0):
        print(line)
    ground = min(rows, key=lambda r: r[1])
    print(f"numeric minimum at m={ground[0]:+g} (E={ground[1]:+.6g})")
    print(f"wrote {os.path.join(out, 'spectrum.csv')}")
    return 0


def _cmd_classify(cfg, args) -> int:
    if isinstance(cfg, SweepGrid):
        cfg = cfg.base
    report: Dict[str, Any] = {}
    for label, t in (("initial", 0.0), ("final", cfg.t_final)):
        regime = cfg.regime_at(t)
        entry: Dict[str, Any] = {"form": regime.form, "magnetism": regime.magnetism}
        if regime.prediction is not None:
            entry["ground_basis"] = regime.prediction.basis
            entry["ground_weights"] = list(regime.prediction.weights)
            entry["ground_label"] = regime.prediction.label
        if regime.note:
            entry["note"] = regime.note
        report[label] = entry
        for line in _regime_lines(f"regime at t={t:g}", cfg, t):
            print(line)
    out = args.out
    _atomic_write(
        os.path.join(out, "classify.json"), json.dumps(report, indent=2) + "\n"
    )
    write_manifest(build_manifest("classify", cfg), out)
    print(f"wrote {os.path.join(out, 'classify.json')}")
    return 0


def _cmd_validate_reduction(cfg, args) -> int:
    if isinstance(cfg, SweepGrid):
        cfg = cfg.base
    report = validate_effective_reduction(cfg, fock_cutoff=args.cutoff, t_final=args.window)
    out = args.out
    write_csv(report, os.path.join(out, "reduction.csv"))
    summary = {
        "fock_cutoff": report.fock_cutoff,
        "max_jz_deviation": report.max_jz_deviation,
        "max_population_deviation": report.max_population_deviation,
        "cutoff_change": report.cutoff_change,
        "lamb_dicke_indicator": report.lamb_dicke_indicator,
        "norm_drift": report.norm_drift,
        "solver": report.solver,
    }
    _atomic_write(
        os.path.join(out, "reduction.json"), json.dumps(summary, indent=2) + "\n"
    )
    write_manifest(build_manifest("validate-reduction", cfg), out)
    print(
        f"max |<J_z>_full - <J_z>_eff| = {report.max_jz_deviation:.6g} "
        f"(cutoff {report.fock_cutoff}, cutoff change {report.cutoff_change:.3g})"
    )
    print(f"(nbar+1)*eta^2 = {report.lamb_dicke_indicator:.3g}")
    print(f"wrote {os.path.join(out, 'reduction.csv')}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "validate-reduction": _cmd_validate_reduction,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmg-adiabat",
        description="Adiabatic GHZ/W state preparation simulator (frequencies in nu units)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate one scenario and write its trajectory CSV"),
        ("sweep", "run a parameter grid and write the sweep CSV"),
        ("spectrum", "closed-form single-drive spectrum and ground-state report"),
        ("classify", "report the model form/regime for a config"),
        ("validate-reduction", "compare the effective model against the full one"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (repeatable; dotted keys allowed)",
        )
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--schedule",
            choices=_SCHEDULE_KINDS,
            default=None,
            help="drive schedule preset (overrides the config)",
        )
        if name == "sweep":
            p.add_argument("--parallel", type=int, default=None,
                           help="accepted for older scripts; has no effect (points run in order)")
        if name == "validate-reduction":
            p.add_argument("--cutoff", type=int, default=6, help="Fock cutoff (default 6)")
            p.add_argument(
                "--window", type=float, default=500.0,
                help="comparison window in 1/nu (default 500)",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set, args.schedule)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParityMismatchError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except LmgAdiabatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
