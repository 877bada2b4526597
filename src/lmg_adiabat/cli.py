"""Command-line front door: JSON configs in, CSV/JSON artifacts out.

Subcommands: ``simulate`` (one scenario trajectory), ``sweep`` (parameter
grid), ``spectrum`` (closed-form isotropic spectrum report), ``classify``
(regime report) and ``validate-reduction`` (full-vs-effective model check).
All frequencies inside the tool are in units of nu; SI suffixes (kHz, MHz)
are accepted in config values and sweep axis values only, and converted at
nu/2pi = 10 MHz by :func:`lmg_adiabat.protocols.config_from_settings`, the
one resolver from settings to a scenario that ``simulate`` and every sweep
point share.
Artifacts are written atomically (temp file + rename) and every output
directory carries a ``manifest.json`` describing the resolved run.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from . import __version__
from ._kernels import resolve_backend
from .errors import (
    ConfigError,
    LmgAdiabatError,
    ParityMismatchError,
    ParseError,
    ValidationError,
)
from .model import isotropic_spectrum
from .protocols import (
    SCHEDULE_KINDS,
    ReductionReport,
    ScenarioConfig,
    ScenarioRun,
    SETTINGS_KEYS,
    _coerce,
    _integer,
    config_from_settings,
    run_scenario,
    validate_effective_reduction,
)
from .sweep import SweepGrid, SweepTable, format_cell, run_sweep

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
# config parsing
# ---------------------------------------------------------------------------

def config_from_dict(data: Dict[str, Any]) -> Union[ScenarioConfig, SweepGrid]:
    """Build a validated scenario, or a sweep grid when ``data`` has a ``sweep`` section.

    The scenario, and every grid point, is resolved by
    :func:`config_from_settings`.
    """
    if "sweep" not in data:
        return config_from_settings(data)
    settings = dict(data)
    spec = settings.pop("sweep")
    if not isinstance(spec, dict) or "axes" not in spec:
        raise ValidationError("sweep section must be a mapping with an 'axes' entry")
    for name, values in spec["axes"].items():
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"sweep axis {name!r} must list its values")
    return SweepGrid(
        settings=settings,
        axes=tuple(spec["axes"].items()),
        output_path=spec.get("output_path"),
        max_points=_coerce("sweep.max_points", spec.get("max_points", 10_000), _integer),
    )


def _set_deep(data: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set ``data[dotted]``; a dotted key that is not a settings key sets a field of a section.

    ``schedule.<field>`` is a settings key, which the resolver lays over the
    schedule that the rest of the settings give.
    """
    if dotted in SETTINGS_KEYS:
        data[dotted] = value
        return
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
    return _csv_text(TRAJECTORY_HEADER, [
        traj.times, run.pop_target, run.pop_target_phase_opt, traj.purity,
        traj.trace_defect, traj.gap, run.omega1, run.omega2,
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
        "config": asdict(cfg),
    }


def write_manifest(manifest: Dict[str, Any], out_dir: str) -> None:
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def write_sweep_diagnostics(table: SweepTable, path: str) -> None:
    """Per-point index, status, wall time, diagnostics and resolved config, kept out of the CSV."""
    points = [
        {"index": row.index, "status": row.status, "wall_time": row.wall_time,
         "diagnostics": row.diagnostics,
         "config": None if row.config is None else asdict(row.config)}
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
    manifest = build_manifest("sweep", cfg.base)
    # the axes in declaration order; each point's resolved config is in the sidecar
    manifest["axes"] = [{"name": name, "values": list(values)} for name, values in cfg.axes]
    write_manifest(manifest, out)
    print(f"{len(table.rows)} points, {table.n_failed} failed; wrote {path}")
    return 1 if table.n_failed else 0


def _cmd_spectrum(cfg, args) -> int:
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
            choices=SCHEDULE_KINDS,
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once a process: parsing does not change it,
    and building it took about 2 ms, a tenth of an in-process ``simulate`` job."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set, args.schedule)
        if isinstance(cfg, SweepGrid) and args.command not in ("simulate", "sweep"):
            cfg = cfg.base
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ParityMismatchError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except LmgAdiabatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
