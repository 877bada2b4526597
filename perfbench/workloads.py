"""The benchmark's workloads: what each one runs, why, and how its outputs are checked.

A workload is a list of ops, and an op is one user job: one ``lmg-adiabat
simulate``, one ensemble call, one ``sweep`` or one ``validate-reduction``,
driven in-process through the package's public entry points.  Every op
checks its own output and returns the values that the default seed compares
against ``reference.json``.

Inputs come from the seed.  Seed 0 is the reference input: the preset
detunings and the twelve ``REFERENCE_DISORDER_PROFILES``.  Other seeds draw
the detuning magnitude (within 0.05 of the preset) or the disorder profiles
(three per reference level), which leaves the work per op unchanged: the
dimension, step count and sample count depend only on the case and N.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

DEFAULT_SEED = 0
TRACE_DEFECT_MAX = 1e-8
CUTOFF_CHANGE_MAX = 1e-3
REFERENCE_TOL = 1e-6

#: Maximum |delta lambda_j| / lambda of the four reference disorder levels.
DISORDER_LEVELS = {"a": 0.05, "b": 0.1, "c": 0.2, "d": 0.3}


@dataclass
class OpOutput:
    trajectories: int  # full-window master-equation or pure-state runs
    fingerprint: bytes  # repeated ops on one input must produce the same bytes
    values: Dict[str, float]  # compared against the reference on the default seed
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Op:
    key: str  # names the input; unique within a workload
    run: Callable[[int, str], OpOutput]  # (workers, output directory) -> output


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    moves: Sequence[str]  # per-layer metrics this workload is meant to move
    bypasses: Sequence[str]  # per-layer metrics it leaves alone
    parallel: bool  # runs members through ``_pmap``
    make_ops: Callable[[int, Optional[float]], List[Op]]  # (seed, t_final or None)


# ---------------------------------------------------------------------------
# checks shared by the ops
# ---------------------------------------------------------------------------

def _cli(argv: List[str]) -> int:
    from lmg_adiabat import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rows(data: bytes) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _check_population(label: str, value: float, problems: List[str]) -> None:
    if not 0.0 <= value <= 1.0:
        problems.append(f"{label}: population {value!r} outside [0, 1]")


def _check_trace(label: str, value: float, problems: List[str]) -> None:
    if not value <= TRACE_DEFECT_MAX:
        problems.append(f"{label}: trace defect {value!r} above {TRACE_DEFECT_MAX}")


def _set_args(settings: Dict[str, object]) -> List[str]:
    out: List[str] = []
    for key, value in settings.items():
        out += ["--set", f"{key}={json.dumps(value)}"]
    return out


def _magnitudes(seed: int, names: Sequence[str], preset: float = 1.1) -> Dict[str, float]:
    """Detuning magnitude per name: the preset on the default seed, else drawn near it."""
    if seed == DEFAULT_SEED:
        return {name: preset for name in names}
    rng = random.Random(seed)
    return {name: round(rng.uniform(preset - 0.05, preset + 0.05), 4) for name in names}


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def simulate_op(case: str, n_spins: int, gamma, magnitude: float,
                t_final: Optional[float] = None) -> Op:
    """One ``lmg-adiabat simulate`` job; checks its trajectory CSV."""
    settings = {"case": case, "n_spins": n_spins, "gamma_dep": gamma,
                "detuning_magnitude": magnitude}
    if t_final is not None:
        settings["t_final"] = t_final
    key = f"simulate case={case} N={n_spins} gamma_dep={gamma}"

    def run(workers: int, out: str) -> OpOutput:
        code = _cli(["simulate", *_set_args(settings), "--out", out])
        data = _read(os.path.join(out, "trajectory.csv"))
        rows = _rows(data)
        problems = [] if code == 0 else [f"{key}: exit code {code}"]
        for row in rows:
            _check_population(key, float(row["pop_target"]), problems)
            _check_population(key, float(row["pop_target_phase_opt"]), problems)
            _check_trace(key, float(row["trace_defect"]), problems)
        values = {
            "pop_target": float(rows[-1]["pop_target"]),
            "pop_target_phase_opt": float(rows[-1]["pop_target_phase_opt"]),
            "gap_min": min(float(row["gap_nu"]) for row in rows),
        }
        return OpOutput(1, data, values, problems)

    return Op(key, run)


def ensemble_op(profiles, t_final: Optional[float] = None) -> Op:
    """One ``disorder_ensemble`` call on the criterion-8 configuration."""
    from lmg_adiabat import disorder_ensemble, preset

    extra = {} if t_final is None else {"t_final": t_final}
    cfg = preset("I", 4, detuning_magnitude=0.9, **extra)
    key = f"disorder_ensemble case=I N=4 |delta|=0.9 members={len(profiles) + 1}"

    def run(workers: int, out: str) -> OpOutput:
        report = disorder_ensemble(cfg, profiles, parallelism=workers)
        members = [report.baseline, *report.members]
        problems: List[str] = []
        values: Dict[str, float] = {}
        for m in members:
            _check_population(m.label, m.final_population, problems)
            _check_population(m.label, m.final_population_phase_opt, problems)
            _check_trace(m.label, m.max_trace_defect, problems)
            values[f"{m.label}.pop"] = m.final_population
            values[f"{m.label}.pop_phase_opt"] = m.final_population_phase_opt
            values[f"{m.label}.min_gap"] = m.min_gap
        return OpOutput(len(members), repr(sorted(values.items())).encode(), values, problems)

    return Op(key, run)


def sweep_op(case: str, n_spins: int, gammas: Sequence, magnitude: float,
             t_final: Optional[float] = None) -> Op:
    """One ``lmg-adiabat sweep`` over a ``gamma_dep`` axis; checks its CSV."""
    settings = {"case": case, "n_spins": n_spins, "detuning_magnitude": magnitude,
                "sweep": {"axes": {"gamma_dep": list(gammas)}}}
    if t_final is not None:
        settings["t_final"] = t_final
    key = f"sweep case={case} N={n_spins} gamma_dep={list(gammas)}"

    def run(workers: int, out: str) -> OpOutput:
        code = _cli(["sweep", *_set_args(settings), "--parallel", str(workers), "--out", out])
        data = _read(os.path.join(out, "sweep.csv"))
        rows = _rows(data)
        problems = [] if code == 0 else [f"{key}: exit code {code}"]
        values: Dict[str, float] = {}
        for row in rows:
            label = f"gamma_dep={row['gamma_dep']}"
            if row["status"] != "ok":
                problems.append(f"{label}: {row['status']} {row['error']}")
                continue
            _check_population(label, float(row["pop_final"]), problems)
            _check_population(label, float(row["pop_final_phase_opt"]), problems)
            _check_trace(label, float(row["trace_defect_max"]), problems)
            for name in ("pop_final", "pop_final_phase_opt", "gap_min"):
                values[f"{label}.{name}"] = float(row[name])
        ok = sum(1 for row in rows if row["status"] == "ok")
        return OpOutput(ok, data, values, problems)

    return Op(key, run)


def reduction_op(magnitude: float, window: Optional[float] = None) -> Op:
    """One ``lmg-adiabat validate-reduction`` for case I, N=2, cutoff 6."""
    argv = ["validate-reduction", *_set_args({"case": "I", "n_spins": 2,
                                               "detuning_magnitude": magnitude}),
            "--cutoff", "6"]
    if window is not None:
        argv += ["--window", str(window)]
    key = "validate-reduction case=I N=2 cutoff=6"

    def run(workers: int, out: str) -> OpOutput:
        code = _cli([*argv, "--out", out])
        summary = json.loads(_read(os.path.join(out, "reduction.json")))
        problems = [] if code == 0 else [f"{key}: exit code {code}"]
        if not summary["cutoff_change"] < CUTOFF_CHANGE_MAX:
            problems.append(f"{key}: cutoff change {summary['cutoff_change']!r}")
        # full run, full run at double cutoff, effective run
        return OpOutput(3, _read(os.path.join(out, "reduction.csv")),
                        {"max_jz_deviation": summary["max_jz_deviation"]}, problems)

    return Op(key, run)


def disorder_profiles(seed: int, eta: float):
    """Twelve profiles, three per reference level; seed 0 gives the reference set."""
    from lmg_adiabat import DisorderProfile, reference_disorder_profiles

    if seed == DEFAULT_SEED:
        return reference_disorder_profiles(eta)
    rng = random.Random(seed)
    out = []
    for tag, level in DISORDER_LEVELS.items():
        for k in range(1, 4):
            fractions = [round(rng.uniform(-level, level), 2) for _ in range(4)]
            fractions[rng.randrange(4)] = rng.choice((-level, level))
            out.append(DisorderProfile(tuple(fractions), eta=eta, label=f"disorder-({tag})-{k}"))
    return out


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

SIMULATE_CASES = (("I", 4), ("II", 3), ("III", 4))


def _simulate_cases(seed: int, t_final: Optional[float]) -> List[Op]:
    mags = _magnitudes(seed, [case for case, _ in SIMULATE_CASES])
    return [
        simulate_op(case, n, gamma, mags[case], t_final)
        for case, n in SIMULATE_CASES
        for gamma in (0, "1.0kHz")
    ]


def _ensemble_disorder(seed: int, t_final: Optional[float]) -> List[Op]:
    return [ensemble_op(disorder_profiles(seed, 0.1), t_final)]


def _sweep_n6(seed: int, t_final: Optional[float]) -> List[Op]:
    return [sweep_op("III", 6, [0, "1.0kHz"], _magnitudes(seed, ["III"])["III"], t_final)]


def _reduction_n2(seed: int, t_final: Optional[float]) -> List[Op]:
    return [reduction_op(_magnitudes(seed, ["I"])["I"], t_final)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="simulate-cases",
            why=(
                "The headline user job: six CLI simulate runs, cases (I,4), (II,3) and "
                "(III,4) at gamma_dep 0 and 1.0kHz, d = 8 and 16, bound by per-step "
                "overhead.  At gamma 0 the state stays in the (N+1)-dim symmetric "
                "sector, so a Dicke or sector backend shows here."
            ),
            moves=(
                "kernels.lindblad_us_per_step", "kernels.lindblad_s",
                "kernels.lindblad_calls", "dynamics.steps",
                "protocols.run_scenario_self_s", "cli.parse_s", "cli.write_s",
                "cli.bytes_written",
            ),
            bypasses=("pool.*", "kernels.schrodinger_s", "protocols.reduction_self_s"),
            parallel=False,
            make_ops=_simulate_cases,
        ),
        Workload(
            name="ensemble-disorder",
            why=(
                "disorder_ensemble on preset('I', 4, detuning_magnitude=0.9) "
                "(acceptance criterion 8) at parallelism 2: 13 members at d = 16.  "
                "Batching shows here; disorder forces the full 2^N path, so a Dicke "
                "backend is bypassed; worker threads contend for the GIL."
            ),
            moves=(
                "kernels.lindblad_us_per_step", "kernels.lindblad_calls",
                "dynamics.steps", "pool.busy_s", "pool.contention_s",
                "pool.speedup_2v1",
            ),
            bypasses=("cli.*", "kernels.schrodinger_s", "protocols.reduction_self_s"),
            parallel=True,
            make_ops=_ensemble_disorder,
        ),
        # Runnable by name but left out of BENCHMARK.json: its one 41 s job makes
        # a run too long for the time all runs of the benchmark must fit in, and
        # runs of 10 s were too short to steady the other workloads.  Its layers
        # stay measured: pool.* on ensemble-disorder, the d = 64 kernel in the
        # traced run's kernels_only.lindblad_n6_us_per_step.
        Workload(
            name="sweep-n6",
            why=(
                "CLI sweep of case III, N=6 over gamma_dep [0, 1.0kHz] at --parallel 2.  "
                "FLOP-bound at d = 64, so a per-step overhead fix barely moves it while "
                "a Dicke backend or a larger step would; exposes BLAS thread "
                "oversubscription under --parallel."
            ),
            moves=(
                "kernels.lindblad_gflops", "kernels.lindblad_gflop", "dynamics.steps",
                "dynamics.gap_scan_s", "model.build_s", "pool.busy_s",
                "pool.contention_s", "pool.speedup_2v1",
            ),
            bypasses=("kernels.schrodinger_s", "protocols.reduction_self_s"),
            parallel=True,
            make_ops=_sweep_n6,
        ),
        Workload(
            name="reduction-n2",
            why=(
                "CLI validate-reduction for case I, N=2, --cutoff 6: the only user of "
                "schrodinger_rk4 and full_interaction_hamiltonian, so without it those "
                "layers would go unmeasured."
            ),
            moves=(
                "kernels.schrodinger_s", "kernels.schrodinger_us_per_step",
                "model.build_s", "model.coef_table_s", "protocols.reduction_self_s",
            ),
            bypasses=("kernels.lindblad_s", "dynamics.gap_scan_s", "pool.*"),
            parallel=False,
            make_ops=_reduction_n2,
        ),
    )
}
