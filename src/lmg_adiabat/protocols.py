"""Turn-key scenario runners for the three adiabatic transfer cases.

A scenario sweeps the driven collective Hamiltonian from its single-drive
(isotropic) form at t = 0 to the one-axis form at t_final while integrating
the master equation, tracking the population of the case's target state:

* case I   (FI,  any N):   GHZ-type  (|m_y=N/2> + e^{i pi J} |m_y=-N/2>)/sqrt(2)
* case II  (AFI, odd N):   W-type    (|m_y=1/2> + i |m_y=-1/2>)/sqrt(2)
* case III (AFI, even N):  W-type    |m_y=0>

A plain settings mapping (a JSON config, ``--set`` overrides, or the base
settings of a sweep plus one grid point) becomes a :class:`ScenarioConfig`
through :func:`config_from_settings` alone.  It is where frequency strings
with a kHz or MHz suffix (``delta``, ``gamma_dep`` and its per-spin lists)
are converted to nu units, at nu/2pi = 10 MHz.

On top of single runs this module provides the disorder / drive-dispersion
robustness ensembles and a numerical check of the effective model against
the full spin+resonator interaction-picture dynamics.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from math import inf, isfinite
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (
    DEFAULT_STEP,
    MAX_STEPS,
    DriveSchedule,
    LindbladSpec,
    TrajectoryResult,
    calibrated_schedule,
    evolve,
    evolve_batch,
    evolve_state,
    literal_schedule,
    rotating_frame_states,
    sample_times,
)
from .errors import (
    CutoffTooSmallError,
    LmgAdiabatError,
    ParityMismatchError,
    ParseError,
    RegimeWarning,
    ValidationError,
)
from .model import (
    DisorderProfile,
    EffectiveCoefficients,
    FullModelParams,
    LmgRegime,
    build_effective_lmg,
    classify_lmg,
    effective_coefficients,
    full_interaction_frame,
    full_interaction_hamiltonian,
    lmg_sweep_hamiltonian,
)
from .operators import SpinRegister, collective_operator
from .states import (
    CASES,
    density_from_state,
    dicke_state,
    phase_optimized,
    target_branches,
    target_state,
)

#: Twelve reference four-spin disorder profiles (fractions of lambda),
#: grouped by their maximum relative deviation.
REFERENCE_DISORDER_PROFILES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("disorder-(a)-1", (-0.05, 0.05, 0.04, 0.05)),
    ("disorder-(a)-2", (-0.05, 0.04, -0.05, 0.05)),
    ("disorder-(a)-3", (0.05, 0.04, 0.05, 0.04)),
    ("disorder-(b)-1", (0.1, -0.05, 0.08, -0.04)),
    ("disorder-(b)-2", (0.05, 0.09, 0.07, 0.01)),
    ("disorder-(b)-3", (-0.05, -0.03, -0.02, 0.1)),
    ("disorder-(c)-1", (-0.2, -0.01, 0.15, 0.07)),
    ("disorder-(c)-2", (-0.12, -0.15, 0.2, -0.1)),
    ("disorder-(c)-3", (0.2, 0.05, 0.11, -0.01)),
    ("disorder-(d)-1", (0.3, 0.2, 0.1, -0.01)),
    ("disorder-(d)-2", (-0.1, -0.2, 0.3, 0.15)),
    ("disorder-(d)-3", (-0.2, 0.3, -0.1, 0.01)),
)

#: Reference drive-dispersion offsets in units of zeta: (dzeta1, dzeta2).
REFERENCE_DISPERSION_PAIRS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.05, 0.05),
    (-0.05, 0.05),
    (0.05, -0.05),
    (0.1, -0.1),
)


def _pmap(fn, items, workers: int):
    """``[fn(x) for x in items]``.  ``workers`` has no effect.

    A seam, not a pool: ``perfbench/tracing.py`` rebinds ``_pmap`` here and
    in :mod:`lmg_adiabat.sweep` to count the members a call runs.
    """
    return [fn(x) for x in items]


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete transfer experiment (all frequencies in nu units)."""

    case: str = "I"
    n_spins: int = 4
    lambda_over_nu: float = 0.1
    delta: float = -1.1
    schedule: DriveSchedule = field(default_factory=calibrated_schedule)
    gamma_dep: Union[float, Tuple[float, ...]] = 0.0
    disorder: Optional[DisorderProfile] = None
    t_final: float = 4000.0
    n_samples: int = 401
    nbar: float = 20.0
    step: float = DEFAULT_STEP

    def __post_init__(self) -> None:
        case = str(self.case).upper()
        object.__setattr__(self, "case", case)
        for name in ("n_spins", "n_samples"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer))
                    or isinstance(value, float) and value.is_integer()):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.schedule, DriveSchedule):
            raise ValidationError(f"schedule must be a DriveSchedule, got {self.schedule!r}")
        if not (self.disorder is None or isinstance(self.disorder, DisorderProfile)):
            raise ValidationError(
                f"disorder must be None or a DisorderProfile, got {self.disorder!r}")
        problems = []
        if case not in CASES:
            problems.append(f"case must be one of {CASES}, got {case!r}")
        else:
            if case == "II" and self.n_spins % 2 == 0:
                raise ParityMismatchError(f"case II needs odd N, got {self.n_spins}")
            if case == "III" and self.n_spins % 2 == 1:
                raise ParityMismatchError(f"case III needs even N, got {self.n_spins}")
        if not 1 <= self.n_spins <= 10:
            problems.append(f"n_spins must be in 1..10, got {self.n_spins}")
        # the chained comparisons are False for nan as well as out of range
        for name in ("lambda_over_nu", "nbar"):
            if not 0 <= getattr(self, name) < inf:
                problems.append(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not -inf < self.delta < inf:
            problems.append(f"delta must be finite, got {self.delta}")
        if not 0 < self.t_final < inf:
            problems.append(f"t_final must be finite and > 0, got {self.t_final}")
        if self.n_samples < 2:
            problems.append(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0 < self.step < inf:
            problems.append(f"step must be finite and > 0, got {self.step}")
        elif 0 < self.t_final < inf and not self.t_final / self.step <= MAX_STEPS:
            problems.append(f"step {self.step} gives t_final / step = "
                            f"{self.t_final / self.step:.6g}, above the step limit "
                            f"({MAX_STEPS:.0e})")
        if isinstance(self.gamma_dep, (tuple, list)):
            gam = tuple(float(g) for g in self.gamma_dep)
            object.__setattr__(self, "gamma_dep", gam)
            if len(gam) != self.n_spins:
                problems.append(
                    f"gamma_dep has {len(gam)} entries for {self.n_spins} spins"
                )
            if not all(0 <= g < inf for g in gam):
                problems.append(f"gamma_dep entries must be finite and >= 0, got {gam}")
        elif not 0 <= self.gamma_dep < inf:
            problems.append(f"gamma_dep must be finite and >= 0, got {self.gamma_dep}")
        if self.disorder is not None and self.disorder.n_spins != self.n_spins:
            problems.append(
                f"disorder profile has {self.disorder.n_spins} entries for {self.n_spins} spins"
            )
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def eta(self) -> float:
        return self.lambda_over_nu

    def gammas(self) -> Tuple[float, ...]:
        if isinstance(self.gamma_dep, tuple):
            return self.gamma_dep
        return (float(self.gamma_dep),) * self.n_spins

    def coefficients_at(self, t: float) -> EffectiveCoefficients:
        return effective_coefficients(
            self.eta,
            self.delta,
            float(self.schedule.omega1(t)),
            float(self.schedule.omega2(t)),
        )

    def regime_at(self, t: float) -> LmgRegime:
        return classify_lmg(self.coefficients_at(t), self.n_spins)

    def initial_state(self) -> np.ndarray:
        """Initial product state: the analytic ground state of H(0).

        For the canonical presets this is the case-declared state
        (|m_z=+N/2> for case I, |m_z=-N/2> for II/III).  When the detuning
        sign flips the isotropic ground pole (the |delta| < 1 presets), the
        polarized ground state for the actual epsilon sign is used so the run
        remains a genuine ground-state transfer.
        """
        regime = self.regime_at(0.0)
        if regime.form == "isotropic" and regime.prediction is not None:
            (m0,) = regime.prediction.weights
            return dicke_state(self.n_spins, m0, "z")
        m0 = self.n_spins / 2.0 if self.case == "I" else -self.n_spins / 2.0
        return dicke_state(self.n_spins, m0, "z")


def preset_delta(case: str, magnitude: float) -> float:
    """Signed detuning for a case at a given |delta|.

    The sign is chosen so the swept-to one-axis Hamiltonian has the magnetism
    the case's target needs (alpha < 0 for the GHZ doublet of case I,
    alpha > 0 for the W states of cases II/III), using
    sign(alpha) = sign(delta * (delta^2 - 1)).
    """
    case = str(case).upper()
    want_fi = case == "I"
    above = magnitude > 1.0
    if want_fi:
        return -magnitude if above else +magnitude
    return +magnitude if above else -magnitude


#: The named drive schedules a settings mapping may give.
SCHEDULE_KINDS = ("calibrated", "literal")


def default_n_spins(case: str) -> int:
    """Register size of a case's preset when none is given."""
    return {"I": 4, "II": 3, "III": 4}.get(case, 4)


def preset(
    case: str,
    n_spins: Optional[int] = None,
    *,
    detuning_magnitude: float = 1.1,
    coupling: float = 0.1,
    gamma: Union[float, Tuple[float, ...]] = 0.0,
    schedule: Union[str, DriveSchedule] = "calibrated",
    t_final: float = 4000.0,
    n_samples: int = 401,
    step: float = DEFAULT_STEP,
) -> ScenarioConfig:
    """Scenario preset with the reference parameter sets (see :func:`config_from_settings`)."""
    settings = dict(case=case, detuning_magnitude=detuning_magnitude, lambda_over_nu=coupling,
                    gamma_dep=gamma, schedule=schedule, t_final=t_final, n_samples=n_samples,
                    step=step)
    if n_spins is not None:
        settings["n_spins"] = n_spins
    return config_from_settings(settings)


#: nu/2pi used for SI conversion of suffixed frequency strings.
NU_HZ = 10.0e6


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


def _finite(value: Any) -> float:
    """``float(value)``, refusing nan and the infinities."""
    number = float(value)
    if not isfinite(number):
        raise ValueError("not a finite number")
    return number


def _integer(value: Any) -> int:
    """``int(value)``, refusing a value with a fractional part (4.0 is 4, 4.5 is refused)."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError("not an integer")
    return int(number)


def _schedule_from_value(value: Any, t_final: float) -> DriveSchedule:
    if isinstance(value, DriveSchedule):
        return value
    if value == "calibrated":
        return calibrated_schedule(t_final=t_final)
    if value == "literal":
        return literal_schedule()
    if isinstance(value, str):
        raise ValidationError(
            f"schedule must be one of {SCHEDULE_KINDS} or a field mapping, got {value!r}"
        )
    if isinstance(value, dict):
        unknown = set(value) - {f.name for f in fields(DriveSchedule)}
        if unknown:
            raise ValidationError(f"unknown schedule fields: {sorted(unknown)}")
        return DriveSchedule(**{k: float(v) for k, v in value.items()})
    raise ValidationError(f"cannot build a schedule from {value!r}")


def _disorder_from_value(value: Any, eta: float) -> Optional[DisorderProfile]:
    if value is None or isinstance(value, DisorderProfile):
        return value
    if isinstance(value, dict):
        return DisorderProfile(fractions=value["fractions"], eta=float(value.get("eta", eta)),
                               label=str(value.get("label", "")))
    if isinstance(value, (list, tuple)):
        return DisorderProfile(fractions=value, eta=eta)
    raise ValidationError(f"cannot build a disorder profile from {value!r}")


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


#: The converter of each settings key whose value depends on no other key.
_CONVERTERS: Dict[str, Callable[[Any], Any]] = {
    "case": lambda v: str(v).upper(), "n_spins": _integer, "n_samples": _integer,
    "lambda_over_nu": float, "detuning_magnitude": float, "nbar": float, "step": float,
    "delta": parse_frequency, "gamma_dep": parse_gamma, "t_final": float,
}

#: The dotted keys that set one field of the resolved schedule.
_SCHEDULE_KEYS = frozenset(f"schedule.{f.name}" for f in fields(DriveSchedule))

#: Every key of a settings mapping; ``schedule`` and ``disorder`` are built
#: from ``t_final`` and ``lambda_over_nu``, then ``schedule.<field>`` keys
#: set fields of the schedule.
SETTINGS_KEYS = frozenset(_CONVERTERS) | {"schedule", "disorder"} | _SCHEDULE_KEYS


def convert_setting(name: str, value: Any, label: Optional[str] = None) -> Any:
    """``value`` of settings key ``name``, converted as :func:`config_from_settings` does.

    ``schedule`` and ``disorder`` values, and dotted ``schedule.<field>``
    ones, are returned as given: they are built only with the rest of the
    settings.  A failure is a ValidationError naming ``label`` (default
    ``name``).
    """
    build = _CONVERTERS.get(name)
    return value if build is None else _coerce(label or name, value, build)


def config_from_settings(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated scenario from a plain settings mapping.

    Unset fields fall back to the case preset defaults; ``delta`` may be given
    signed, or left to the preset sign rule via ``detuning_magnitude``.  A
    named schedule is built over ``t_final`` and a fraction-list disorder at
    ``lambda_over_nu``; dotted ``schedule.<field>`` keys then set fields of
    that schedule.  A value that cannot be converted raises
    :class:`ValidationError` naming its field.
    """
    unknown = set(data) - SETTINGS_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    def field(name: str, default: Any) -> Any:
        return convert_setting(name, data.get(name, default))

    case = field("case", "I")
    # finite before the calibrated schedule is built from it; checked here and
    # not by the converter, so that a sweep point with a nan t_final fails alone
    t_final = _coerce("t_final", field("t_final", 4000.0), _finite)
    if "delta" in data:
        delta = field("delta", None)
    else:
        delta = preset_delta(case, field("detuning_magnitude", 1.1))
    lam = field("lambda_over_nu", 0.1)
    schedule = _coerce("schedule", data.get("schedule", "calibrated"),
                       lambda v: _schedule_from_value(v, t_final))
    for key in sorted(data.keys() & _SCHEDULE_KEYS):
        name = key.partition(".")[2]
        schedule = _coerce(key, data[key], lambda v: replace(schedule, **{name: float(v)}))
    return ScenarioConfig(
        case=case,
        n_spins=field("n_spins", default_n_spins(case)),
        lambda_over_nu=lam,
        delta=delta,
        schedule=schedule,
        gamma_dep=field("gamma_dep", 0.0),
        disorder=_coerce("disorder", data.get("disorder"), lambda v: _disorder_from_value(v, lam)),
        t_final=t_final,
        n_samples=field("n_samples", 401),
        nbar=field("nbar", 20.0),
        step=field("step", DEFAULT_STEP),
    )


@dataclass
class ScenarioRun:
    """Trajectory of one scenario plus its derived summary series."""

    config: ScenarioConfig
    trajectory: TrajectoryResult
    omega1: np.ndarray
    omega2: np.ndarray
    pop_target: np.ndarray
    pop_target_phase_opt: np.ndarray
    regime_initial: LmgRegime
    regime_final: LmgRegime
    min_gap: float
    adiabatic_margin: float

    @property
    def times(self) -> np.ndarray:
        return self.trajectory.times

    @property
    def final_population(self) -> float:
        return float(self.pop_target[-1])

    @property
    def final_population_phase_opt(self) -> float:
        return float(self.pop_target_phase_opt[-1])

    @property
    def max_trace_defect(self) -> float:
        return float(np.max(self.trajectory.trace_defect))


def _expected_final_magnetism(case: str) -> str:
    return "FI" if case == "I" else "AFI"


def run_scenario(
    cfg: ScenarioConfig,
    *,
    store_states: Optional[bool] = None,
    record_gap: bool = True,
) -> ScenarioRun:
    """Integrate one scenario and track its target-state populations.

    Emits a non-fatal :class:`RegimeWarning` when the classified regime at
    t_final does not match the case's intended one-axis form/magnetism.
    """
    return run_scenarios([cfg], store_states=store_states, record_gap=record_gap)[0]


#: Fields every scenario of one batch must share (gammas() is checked too).
_BATCH_SHARED = ("n_spins", "case", "t_final", "step", "n_samples")


def run_scenarios(
    cfgs: Sequence[ScenarioConfig],
    *,
    store_states: Optional[bool] = None,
    record_gap: bool = True,
) -> List[ScenarioRun]:
    """Integrate several scenarios as one batch, one run per config in order.

    The configs must share ``n_spins``, ``case``, ``gammas()``, ``t_final``,
    ``step`` and ``n_samples``; they may differ in coupling, detuning,
    schedule and disorder.  A config equal to an earlier one is integrated
    once and shares that run.  Each run warns as :func:`run_scenario` does.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    first = cfgs[0]
    for cfg in cfgs[1:]:
        differ = [name for name in _BATCH_SHARED if getattr(cfg, name) != getattr(first, name)]
        if cfg.gammas() != first.gammas():
            differ.append("gammas")
        if differ:
            raise ValidationError(
                f"scenarios of one batch must share {', '.join(differ)}"
            )
    unique = list(dict.fromkeys(cfgs))

    reg = SpinRegister(first.n_spins)
    target = target_state(first.case, first.n_spins)
    branch_a, branch_b = target_branches(first.case, first.n_spins)
    populations = {"target": target, "branch_plus": branch_a}
    bilinears = {}
    if branch_b is not None:
        populations["branch_minus"] = branch_b
        bilinears["branch_cross"] = (branch_a, branch_b)

    specs = [
        LindbladSpec(
            lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1,
                                  cfg.schedule.omega2, cfg.disorder),
            cfg.gammas(),
        )
        for cfg in unique
    ]
    rho0s = [density_from_state(cfg.initial_state()) for cfg in unique]
    options = dict(
        n_samples=first.n_samples,
        step=first.step,
        populations=populations,
        bilinears=bilinears,
        record_gap=record_gap,
        store_states=store_states,
    )
    if len(unique) == 1:  # single runs stay on evolve, the layer perfbench traces
        results = [evolve(specs[0], rho0s[0], (0.0, first.t_final), **options)]
    else:
        results = evolve_batch(specs, rho0s, (0.0, first.t_final), **options)
    runs = {cfg: _scenario_run(cfg, result, branch_b is not None)
            for cfg, result in zip(unique, results)}
    for cfg in cfgs:
        _warn_on_final_regime(cfg)
    return [runs[cfg] for cfg in cfgs]


def _scenario_run(cfg: ScenarioConfig, result: TrajectoryResult, two_branches: bool) -> ScenarioRun:
    pop_target = result.populations["target"]
    if two_branches:
        pop_opt = phase_optimized(result.populations["branch_plus"],
                                  result.populations["branch_minus"],
                                  result.bilinears["branch_cross"])
    else:
        pop_opt = pop_target.copy()

    min_gap = float(np.min(result.gap)) if result.gap is not None else float("nan")
    return ScenarioRun(
        config=cfg,
        trajectory=result,
        omega1=np.asarray(cfg.schedule.omega1(result.times), dtype=np.float64),
        omega2=np.asarray(cfg.schedule.omega2(result.times), dtype=np.float64),
        pop_target=pop_target,
        pop_target_phase_opt=pop_opt,
        regime_initial=cfg.regime_at(0.0),
        regime_final=cfg.regime_at(cfg.t_final),
        min_gap=min_gap,
        adiabatic_margin=cfg.t_final * min_gap if np.isfinite(min_gap) else float("nan"),
    )


def _warn_on_final_regime(cfg: ScenarioConfig) -> None:
    regime_final = cfg.regime_at(cfg.t_final)
    expected = _expected_final_magnetism(cfg.case)
    if regime_final.form != "one-axis-y" or regime_final.magnetism != expected:
        warnings.warn(
            f"scenario case {cfg.case} ended in regime "
            f"({regime_final.form}, {regime_final.magnetism}), expected "
            f"(one-axis-y, {expected})",
            RegimeWarning,
            stacklevel=3,
        )


@dataclass
class EnsembleMember:
    label: str
    final_population: float
    final_population_phase_opt: float
    min_gap: float
    max_trace_defect: float


@dataclass
class EnsembleReport:
    """Per-member summaries of a robustness ensemble, baseline first."""

    baseline: EnsembleMember
    members: List[EnsembleMember]

    @property
    def max_deviation_phase_opt(self) -> float:
        base = self.baseline.final_population_phase_opt
        return max(
            (abs(m.final_population_phase_opt - base) for m in self.members),
            default=0.0,
        )

    def spread(self) -> Dict[str, float]:
        vals = [m.final_population_phase_opt for m in self.members]
        return {
            "baseline": self.baseline.final_population_phase_opt,
            "min": min(vals) if vals else float("nan"),
            "max": max(vals) if vals else float("nan"),
            "mean": float(np.mean(vals)) if vals else float("nan"),
            "max_abs_dev": self.max_deviation_phase_opt,
        }


def _summarize(label: str, run: ScenarioRun) -> EnsembleMember:
    return EnsembleMember(
        label=label,
        final_population=run.final_population,
        final_population_phase_opt=run.final_population_phase_opt,
        min_gap=run.min_gap,
        max_trace_defect=run.max_trace_defect,
    )


def disorder_ensemble(
    cfg: ScenarioConfig,
    profiles: Sequence[DisorderProfile],
    *,
    parallelism: Optional[int] = None,
) -> EnsembleReport:
    """One run per coupling-disorder profile plus the disorder-free baseline.

    The members run as one batch (:func:`run_scenarios`).  ``parallelism``
    has no effect: splitting a batch over threads measured slower than
    running it whole.  It is kept only because ``perfbench/workloads.py``
    passes it.
    """
    jobs = [("baseline", cfg)]
    jobs += [(p.label or f"profile-{i}", replace(cfg, disorder=p))
             for i, p in enumerate(profiles, start=1)]
    return _run_ensemble(jobs)


def _run_ensemble(jobs: Sequence[Tuple[str, ScenarioConfig]]) -> EnsembleReport:
    labels, cfgs = zip(*jobs)
    runs = run_scenarios(cfgs, store_states=False, record_gap=True)
    out = [_summarize(label, run) for label, run in zip(labels, runs)]
    return EnsembleReport(baseline=out[0], members=out[1:])


def reference_disorder_profiles(eta: float) -> List[DisorderProfile]:
    """The twelve reference disorder profiles bound to a coupling strength."""
    return [
        DisorderProfile(fractions=f, eta=eta, label=label)
        for label, f in REFERENCE_DISORDER_PROFILES
    ]


def dispersion_ensemble(
    cfg: ScenarioConfig,
    deltas: Sequence[Tuple[float, float]],
) -> EnsembleReport:
    """One run per (dzeta1, dzeta2) drive-dispersion pair, in nu units.

    The baseline is the undispersed configuration; a (0, 0) pair reproduces
    it exactly.  Unequal offsets leave beta1(t_final) = 2(dzeta1 - dzeta2),
    so a member's reported final populations are bounded by the target
    weight of the ground state of its own dispersed final Hamiltonian.  The
    members run as one batch, as in :func:`disorder_ensemble`.
    """
    zeta = cfg.schedule.zeta
    for d1, d2 in deltas:
        if abs(d1) > 0.5 * zeta or abs(d2) > 0.5 * zeta:
            raise ValidationError(
                f"dispersion offsets ({d1}, {d2}) exceed 0.5 * zeta = {0.5 * zeta}"
            )
    jobs = [("baseline", cfg)]
    jobs += [
        (f"dzeta=({d1:+g},{d2:+g})", replace(cfg, schedule=cfg.schedule.with_dispersion(d1, d2)))
        for d1, d2 in deltas
    ]
    return _run_ensemble(jobs)


@dataclass
class ReductionReport:
    """Full-model vs effective-model comparison over one time window."""

    times: np.ndarray
    jz_full: np.ndarray
    jz_effective: np.ndarray
    pop_full: np.ndarray
    pop_effective: np.ndarray
    fock_cutoff: int
    max_jz_deviation: float
    max_population_deviation: float
    cutoff_change: float
    lamb_dicke_indicator: float
    norm_drift: float
    #: How the full runs were solved: "rotating-frame" (one tone, exact; the
    #: norm drift is round-off) or "rk4" (two tones; the norm drift is RK4's
    #: convergence indicator).
    solver: str


def _spin_readout(amplitudes: np.ndarray, jz_diag: np.ndarray, target: np.ndarray):
    """<J_z> and the target population of (T, spin, mode) amplitudes.

    The mode axis (the resonator, or a single dummy mode) is traced out; the
    populations are clamped into [0, 1] like :func:`states.population`.
    """
    jz = np.sum(np.abs(amplitudes) ** 2, axis=2) @ jz_diag
    overlaps = np.einsum("i,tik->tk", target.conj(), amplitudes)
    pop = np.clip(np.sum(np.abs(overlaps) ** 2, axis=1), 0.0, 1.0)
    return jz, pop


def validate_effective_reduction(
    cfg: ScenarioConfig,
    fock_cutoff: int,
    *,
    omega1: Optional[float] = None,
    omega2: float = 0.0,
    t_final: float = 500.0,
    n_samples: int = 251,
    step: float = 0.02,
) -> ReductionReport:
    """Compare constant-drive full spin+resonator dynamics with the effective model.

    The resonator starts in vacuum and the spins in the scenario's initial
    product state.  The full run is repeated at double the Fock cutoff; a
    :class:`CutoffTooSmallError` is raised when that changes the <J_z>
    trajectory by more than 10% of the reported full-vs-effective deviation.
    The (nbar + 1) eta^2 indicator is reported for the configured thermal
    occupation even though the simulation itself is at T = 0.

    With one tone the full model is constant in the drive's rotating frame
    (:func:`full_interaction_frame`) and the effective model is constant
    outright, so both are solved exactly (:func:`rotating_frame_states`).
    Only two-tone full runs are integrated, with RK4 at ``step``; ``step``
    otherwise just fixes the sample times.
    """
    if cfg.n_spins > 2:
        raise ValidationError(
            f"reduction validation supports N <= 2 (joint space), got N = {cfg.n_spins}"
        )
    if not (isfinite(t_final) and t_final > 0):
        raise ValidationError(
            f"the comparison window t_final must be finite and > 0, got {t_final}"
        )
    if not t_final / step <= MAX_STEPS:
        raise ValidationError(
            f"the comparison window t_final = {t_final} is {t_final / step:.6g} steps of "
            f"{step}, above the step limit ({MAX_STEPS:.0e})"
        )
    if omega1 is None:
        omega1 = cfg.schedule.zeta

    reg = SpinRegister(cfg.n_spins)
    params = FullModelParams(
        n_spins=cfg.n_spins,
        fock_cutoff=int(fock_cutoff),
        eta=cfg.eta,
        delta=cfg.delta,
        omega1=float(omega1),
        omega2=float(omega2),
        nbar=cfg.nbar,
    )
    indicator = params.lamb_dicke_indicator
    if indicator >= 0.1:
        warnings.warn(
            f"(nbar+1)*eta^2 = {indicator:.3g} >= 0.1: outside the trusted "
            "expansion regime for the configured thermal occupation",
            RegimeWarning,
            stacklevel=2,
        )

    jz_diag = collective_operator(reg, "z").diagonal().real
    psi_spin = cfg.initial_state()
    target = target_state(cfg.case, cfg.n_spins)
    times = sample_times((0.0, t_final), step, n_samples)
    solver = "rk4" if full_interaction_frame(params) is None else "rotating-frame"

    def full_run(cutoff: int):
        p = replace(params, fock_cutoff=cutoff)
        ham = full_interaction_hamiltonian(p)
        frame = full_interaction_frame(p)
        vac = np.zeros(cutoff, dtype=np.complex128)
        vac[0] = 1.0
        psi0 = np.kron(psi_spin, vac)
        if frame is None:
            _, psis, _ = evolve_state(ham, psi0, (0.0, t_final),
                                      n_samples=n_samples, step=step)
        else:
            psis = rotating_frame_states(ham.matrix(0.0), frame, psi0, times)
        jz, pop = _spin_readout(psis.reshape(times.size, reg.dim, cutoff), jz_diag, target)
        drift = abs(float(np.linalg.norm(psis[-1])) - 1.0)
        return jz, pop, drift

    jz_full, pop_full, drift = full_run(params.fock_cutoff)
    jz_double, _, _ = full_run(2 * params.fock_cutoff)

    h_eff = build_effective_lmg(
        reg, effective_coefficients(cfg.eta, cfg.delta, float(omega1), float(omega2))
    )
    psis_eff = rotating_frame_states(h_eff, np.zeros(reg.dim), psi_spin, times)
    jz_eff, pop_eff = _spin_readout(psis_eff[:, :, None], jz_diag, target)

    max_jz_dev = float(np.max(np.abs(jz_full - jz_eff)))
    max_pop_dev = float(np.max(np.abs(pop_full - pop_eff)))
    cutoff_change = float(np.max(np.abs(jz_full - jz_double)))
    if cutoff_change > 0.1 * max_jz_dev:
        raise CutoffTooSmallError(
            f"doubling the Fock cutoff moves <J_z> by {cutoff_change:.3e}, more than "
            f"10% of the full-vs-effective deviation {max_jz_dev:.3e}; "
            f"increase fock_cutoff beyond {params.fock_cutoff}"
        )

    return ReductionReport(
        times=times,
        jz_full=jz_full,
        jz_effective=jz_eff,
        pop_full=pop_full,
        pop_effective=pop_eff,
        fock_cutoff=params.fock_cutoff,
        max_jz_deviation=max_jz_dev,
        max_population_deviation=max_pop_dev,
        cutoff_change=cutoff_change,
        lamb_dicke_indicator=indicator,
        norm_drift=drift,
        solver=solver,
    )
