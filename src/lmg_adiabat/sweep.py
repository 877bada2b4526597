"""Parallel execution of scenario grids with deterministic aggregation.

A grid is a base scenario plus named axes of parameter overrides; the
cartesian product is executed point by point on worker threads and results
are reassembled in grid order, so the output is independent of the worker
count.  Extra workers gain little at the register sizes of the presets:
the numpy kernels spend most of a step in Python between small array
operations, holding the GIL, and numpy releases it only inside those
operations.  Failed points keep their row with an error label instead of
being dropped.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import DriveSchedule
from .errors import UnknownAxisError, ValidationError
from .model import DisorderProfile
from .protocols import ScenarioConfig, _pmap, _resolve_workers, run_scenario

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


def run_sweep(
    grid: SweepGrid,
    parallelism: Optional[int] = None,
) -> SweepTable:
    """Execute every grid point; the table is identical for any worker count."""
    workers = _resolve_workers(parallelism)
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

    rows = _pmap(one, points, workers)
    rows.sort(key=lambda r: r.index)
    return SweepTable(axes=grid.axis_names, rows=rows)


@dataclass
class AggregateRow:
    group: Dict[str, Any]
    count: int
    n_failed: int
    pop_min: float
    pop_max: float
    pop_mean: float
    pop_opt_min: float
    pop_opt_max: float
    pop_opt_mean: float


def aggregate(table: SweepTable, group_by: Sequence[str] = ()) -> List[AggregateRow]:
    """Min/max/mean final populations per group of axis values.

    Values group by their CSV representation, so e.g. disorder profiles that
    share a label (one label per disorder level) fall into one group.  With no
    ``group_by`` a single global summary row comes back.  Failed points are
    counted but excluded from the statistics.
    """
    group_by = list(group_by)
    for name in group_by:
        if name not in table.axes:
            raise UnknownAxisError(f"unknown axis {name!r}; table has {table.axes}")

    groups: Dict[Tuple, List[SweepRow]] = {}
    order: List[Tuple] = []
    for row in table.rows:
        key = tuple(format_cell(row.values[name]) for name in group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    out = []
    for key in order:
        rows = groups[key]
        ok = [r for r in rows if r.status == "ok"]
        pops = [r.pop_final for r in ok]
        opts = [r.pop_final_phase_opt for r in ok]
        out.append(
            AggregateRow(
                group=dict(zip(group_by, key)),
                count=len(rows),
                n_failed=len(rows) - len(ok),
                pop_min=min(pops) if pops else float("nan"),
                pop_max=max(pops) if pops else float("nan"),
                pop_mean=float(np.mean(pops)) if pops else float("nan"),
                pop_opt_min=min(opts) if opts else float("nan"),
                pop_opt_max=max(opts) if opts else float("nan"),
                pop_opt_mean=float(np.mean(opts)) if opts else float("nan"),
            )
        )
    return out
