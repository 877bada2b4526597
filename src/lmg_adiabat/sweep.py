"""Scenario grids run point by point into one table.

A grid is a base scenario plus named axes of parameter overrides; the
cartesian product runs one point after another, in grid order, on the
calling thread (an N >= 6 point still scans its gap beside its integration,
see :func:`lmg_adiabat.dynamics.evolve_batch`).  Failed points keep their
row with an error label instead of being dropped.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .dynamics import DriveSchedule
from .errors import ValidationError
from .model import DisorderProfile
from .protocols import ScenarioConfig, _pmap, run_scenario

DEFAULT_MAX_POINTS = 10_000

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_SCHEDULE_FIELDS = {f.name for f in dataclasses.fields(DriveSchedule)}


def format_cell(value: Any) -> str:
    """Stable CSV representation of an axis value (floats round-trip)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, DisorderProfile):
        return value.label or "(" + ";".join(repr(float(f)) for f in value.fractions) + ")"
    if isinstance(value, DriveSchedule):
        return ";".join(
            f"{f.name}={repr(float(getattr(value, f.name)))}"
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return "(" + ";".join(format_cell(v) for v in value) + ")"
    return str(value)


def _check_axis_name(name: str) -> None:
    head, _, tail = name.partition(".")
    if head not in _CONFIG_FIELDS:
        raise ValidationError(f"axis {name!r} does not name a ScenarioConfig field")
    if tail:
        if head != "schedule" or tail not in _SCHEDULE_FIELDS:
            raise ValidationError(f"axis {name!r} does not name a schedule field")


def _apply_override(cfg: ScenarioConfig, name: str, value: Any) -> ScenarioConfig:
    head, _, tail = name.partition(".")
    if tail:
        return dataclasses.replace(
            cfg, schedule=dataclasses.replace(cfg.schedule, **{tail: value})
        )
    if head == "disorder" and value is not None and not isinstance(value, DisorderProfile):
        value = DisorderProfile(fractions=tuple(value), eta=cfg.eta)
    if head == "gamma_dep" and isinstance(value, list):
        value = tuple(value)
    return dataclasses.replace(cfg, **{head: value})


@dataclass(frozen=True)
class SweepGrid:
    """Base scenario plus named override axes (cartesian product)."""

    base: ScenarioConfig
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    output_path: Optional[str] = None
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self) -> None:
        axes = tuple(
            (str(name), tuple(values)) for name, values in dict(self.axes).items()
        ) if isinstance(self.axes, dict) else tuple(
            (str(name), tuple(values)) for name, values in self.axes
        )
        object.__setattr__(self, "axes", axes)
        for name, values in axes:
            _check_axis_name(name)
            if not values:
                raise ValidationError(f"axis {name!r} has no values")
        if self.size > self.max_points:
            raise ValidationError(
                f"grid size {self.size} exceeds the cap of {self.max_points} points"
            )

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def size(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def points(self) -> List[Dict[str, Any]]:
        """Override dictionaries in grid order (last axis fastest)."""
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in product(*(values for _, values in self.axes))
        ]

    def config_at(self, overrides: Dict[str, Any]) -> ScenarioConfig:
        cfg = self.base
        for name, value in overrides.items():
            cfg = _apply_override(cfg, name, value)
        return cfg


@dataclass
class SweepRow:
    index: int
    values: Dict[str, Any]
    pop_final: float
    pop_final_phase_opt: float
    gap_min: float
    trace_defect_max: float
    status: str  # 'ok' | 'error'
    error: str
    wall_time: float
    #: the run's TrajectoryResult.diagnostics (empty for a failed point)
    diagnostics: Dict[str, Any]


@dataclass
class SweepTable:
    axes: Tuple[str, ...]
    rows: List[SweepRow]

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.rows if r.status != "ok")


def run_sweep(grid: SweepGrid) -> SweepTable:
    """Run every grid point in grid order; a failing point gets an error row."""
    points = list(enumerate(grid.points()))

    def one(item) -> SweepRow:
        index, overrides = item
        start = time.perf_counter()
        try:
            cfg = grid.config_at(overrides)
            run = run_scenario(cfg, store_states=False)
            return SweepRow(
                index=index,
                values=overrides,
                pop_final=run.final_population,
                pop_final_phase_opt=run.final_population_phase_opt,
                gap_min=run.min_gap,
                trace_defect_max=run.max_trace_defect,
                status="ok",
                error="",
                wall_time=time.perf_counter() - start,
                diagnostics=run.trajectory.diagnostics,
            )
        except Exception as exc:  # captured per point, never dropped
            return SweepRow(
                index=index,
                values=overrides,
                pop_final=float("nan"),
                pop_final_phase_opt=float("nan"),
                gap_min=float("nan"),
                trace_defect_max=float("nan"),
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                wall_time=time.perf_counter() - start,
                diagnostics={},
            )

    return SweepTable(axes=grid.axis_names, rows=_pmap(one, points, 1))
