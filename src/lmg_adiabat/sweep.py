"""Scenario grids run point by point into one table.

A grid is a base settings mapping plus named axes of settings values; the
cartesian product runs one point after another, in grid order, on the
calling thread (an N >= 6 point still scans its gap beside its integration,
see :func:`lmg_adiabat.dynamics.evolve_batch`).  Any settings key may be an
axis, and so may a dotted ``schedule.<field>``.  Each point is resolved by
:func:`lmg_adiabat.protocols.config_from_settings` from the base settings
with the point's values substituted, exactly as ``simulate`` resolves a
config, so values derived from other keys (the sign of ``delta``, a named
schedule, a fraction-list disorder) follow the point.  Axis values are
converted, kHz and MHz suffixes included, when the grid is built.  Failed
points keep their row with an error label instead of being dropped.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .dynamics import DriveSchedule
from .errors import ValidationError
from .model import DisorderProfile
from .protocols import (
    SETTINGS_KEYS,
    ScenarioConfig,
    _pmap,
    config_from_settings,
    convert_setting,
    run_scenario,
)

DEFAULT_MAX_POINTS = 10_000


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
            f"{f.name}={repr(float(getattr(value, f.name)))}" for f in fields(value)
        )
    if isinstance(value, dict):
        return ";".join(f"{k}={format_cell(v)}" for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return "(" + ";".join(format_cell(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class SweepGrid:
    """Base settings plus named axes of settings values (cartesian product).

    ``settings`` is a settings mapping without its ``sweep`` section, and
    ``base`` is it resolved.  Axis values are converted as the settings
    resolver converts them; ``schedule``, ``schedule.<field>`` and
    ``disorder`` values are kept as given and built per point.
    """

    settings: Mapping[str, Any]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    output_path: Optional[str] = None
    max_points: int = DEFAULT_MAX_POINTS
    base: ScenarioConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        axes = []
        for name, values in self.axes:
            name, values = str(name), tuple(values)
            if name not in SETTINGS_KEYS:
                raise ValidationError(f"axis {name!r} is neither a config key nor schedule.<field>")
            if not values:
                raise ValidationError(f"axis {name!r} has no values")
            axes.append((name, tuple(convert_setting(name, v, f"sweep axis {name}")
                                     for v in values)))
        object.__setattr__(self, "axes", tuple(axes))
        if self.size > self.max_points:
            raise ValidationError(
                f"grid size {self.size} exceeds the cap of {self.max_points} points"
            )
        object.__setattr__(self, "base", config_from_settings(self.settings))

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def size(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def points(self) -> List[Dict[str, Any]]:
        """Axis values of each point in grid order (last axis fastest)."""
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in product(*(values for _, values in self.axes))
        ]

    def config_at(self, point: Dict[str, Any]) -> ScenarioConfig:
        """The base settings with the point's values, resolved as ``simulate`` resolves them."""
        return config_from_settings({**self.settings, **point})


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
    #: the point's resolved config (None if it could not be resolved)
    config: Optional[ScenarioConfig]


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
        index, point = item
        start = time.perf_counter()
        cfg = None
        try:
            cfg = grid.config_at(point)
            if "disorder" in point:  # its cell shows the built profile's label or fractions
                point = {**point, "disorder": cfg.disorder}
            run = run_scenario(cfg, store_states=False)
        except Exception as exc:  # captured per point, never dropped
            nan = float("nan")
            return SweepRow(index, point, nan, nan, nan, nan, "error",
                            f"{type(exc).__name__}: {exc}", time.perf_counter() - start, {}, cfg)
        return SweepRow(index, point, run.final_population, run.final_population_phase_opt,
                        run.min_gap, run.max_trace_defect, "ok", "",
                        time.perf_counter() - start, run.trajectory.diagnostics, cfg)

    return SweepTable(axes=grid.axis_names, rows=_pmap(one, points, 1))
