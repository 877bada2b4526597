#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lmg-adiabat.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate-cases --seed 0 --seconds 20 --trace 0

One closed-loop client runs the workload's ops (user jobs) one at a time,
each started when the previous one has finished, in whole rounds until
``--seconds`` have passed.  The package is imported from ``src/`` of the
checkout this file sits in.  The program's own worker count is
``min(2, nproc)``; BLAS thread variables are left as the caller set them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
untraced, then traced (and, for parallel workloads, traced again at one
worker), times the kernels alone, and prints the per-layer metrics.  Every
op's output is checked either way.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_TOL, WORKLOADS, Op  # noqa: E402

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "trajectories_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Set-up samples per run, half taken before the jobs and half after them: a
#: shared 2-vCPU host switches between a fast and a slow state (set-up about
#: 0.13 s against 0.21 s) every few seconds, so samples from both ends of the
#: run make their median steadier.
SETUP_SAMPLES = 20
SETUP_CODE = "import lmg_adiabat, lmg_adiabat.cli; lmg_adiabat.resolve_backend()"
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"


class PackageMissing(RuntimeError):
    pass


def import_package():
    """Import lmg_adiabat from this checkout's src/, never from elsewhere."""
    init = SRC / "lmg_adiabat" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no package source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lmg_adiabat

    if Path(lmg_adiabat.__file__).resolve() != init.resolve():
        raise PackageMissing(f"lmg_adiabat imported from {lmg_adiabat.__file__}, not {init}")
    return lmg_adiabat


def workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    import numpy as np
    from lmg_adiabat import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    nproc = len(os.sched_getaffinity(0))
    set_vars = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if v in os.environ}
    # OpenBLAS starts one thread per core, up to its build limit, unless a variable is set
    default_threads = min(nproc, int(max_threads.group(1))) if max_threads else nproc
    return {
        "backend": _kernels.resolve_backend(),
        "numba_available": _kernels.NUMBA_AVAILABLE,
        "numba_figures": "measured" if _kernels.NUMBA_AVAILABLE else "unmeasured",
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": config,
        "blas_default_threads": int(next(iter(set_vars.values()), default_threads)),
        "blas_thread_vars_set": set_vars,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "program_workers": workers(),
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Attempted and failed ops, with the first problems seen."""

    reference: Optional[Dict[str, Dict[str, float]]]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)

    def run(self, op: Op, n_workers: int, out: Path) -> Tuple[float, int]:
        """Run one op; returns (wall seconds, trajectories integrated)."""
        out.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run(n_workers, str(out))
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            wall = time.perf_counter() - start
            self._fail([f"{op.key}: {type(exc).__name__}: {exc}"])
            return wall, 0
        wall = time.perf_counter() - start
        problems = list(result.problems)
        digest = hashlib.sha256(result.fingerprint).hexdigest()
        if self.fingerprints.setdefault(op.key, digest) != digest:
            problems.append(f"{op.key}: output differs from an earlier run of the same input")
        if self.reference is not None:
            expected = self.reference.get(op.key)
            if expected is None:
                problems.append(f"{op.key}: no reference values")
            else:
                for name, value in expected.items():
                    got = result.values.get(name)
                    if got is None or not abs(got - value) <= REFERENCE_TOL:
                        problems.append(f"{op.key}: {name} = {got!r}, reference {value!r}")
        if problems:
            self._fail(problems)
        return wall, result.trajectories

    def _fail(self, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def _load_reference(workload: str, seed: int, t_final: Optional[float]):
    if seed != DEFAULT_SEED or t_final is not None:
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def measure_setup(samples: int) -> List[float]:
    """Wall time of fresh processes that import the package and resolve the backend.

    Taken while no op runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for i in range(samples + 1):  # the first, untimed, writes the bytecode caches
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=str(ROOT), check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def _round(tally: Tally, ops: List[Op], n_workers: int, out: Path, label: str):
    walls, trajectories = [], 0
    for i, op in enumerate(ops):
        wall, n = tally.run(op, n_workers, out / f"{label}-{i}")
        walls.append(wall)
        trajectories += n
    return walls, trajectories


def run_end_to_end(name: str, seed: int, seconds: float, t_final: Optional[float] = None,
                   setup_samples: int = SETUP_SAMPLES) -> Dict[str, object]:
    workload = WORKLOADS[name]
    setup = measure_setup(setup_samples // 2)
    ops = workload.make_ops(seed, t_final)
    tally = Tally(_load_reference(name, seed, t_final))
    out = OUT_DIR / f"{name}-{os.getpid()}"
    walls: List[float] = []
    trajectories = 0
    start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - start < seconds:
            w, n = _round(tally, ops, workers(), out, f"round{len(walls)}")
            walls += w
            trajectories += n
    finally:
        shutil.rmtree(out, ignore_errors=True)
    setup += measure_setup(setup_samples - setup_samples // 2)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(walls),
        "trajectories_per_s": trajectories / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"tally": tally, "metrics": metrics, "units": END_TO_END,
            "notes": [f"{len(walls)} jobs in {sum(walls):.2f} s, {trajectories} trajectories",
                      f"setup samples (s): {[round(t, 4) for t in setup]}"]}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def kernel_section(lindblad_t_final: float = 400.0, schrodinger_t_final: float = 50.0,
                   repeat: int = 3) -> Dict[str, float]:
    """Kernel-only timings on the workload builders of benchmarks/bench_kernels.py."""
    from lmg_adiabat import _kernels

    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    kern = _kernels.get_kernels()
    cases = {
        f"kernels_only.lindblad_n{n}_us_per_step": bench.lindblad_workload(n, t_final=lindblad_t_final)
        for n in (3, 4, 6)
    }
    cases["kernels_only.schrodinger_c8_us_per_step"] = bench.schrodinger_workload(
        8, t_final=schrodinger_t_final)
    out = {}
    for metric, (kind, _, args) in cases.items():
        best = bench.time_call(getattr(kern, f"{kind}_rk4"), args, repeat)
        out[metric] = 1e6 * best / ((args[1].shape[0] - 1) // 2)
    return out


def run_traced(name: str, seed: int, t_final: Optional[float] = None,
               kernel_scale: float = 1.0) -> Dict[str, object]:
    workload = WORKLOADS[name]
    ops = workload.make_ops(seed, t_final)
    tally = Tally(_load_reference(name, seed, t_final))
    out = OUT_DIR / f"{name}-trace-{os.getpid()}"
    n_workers = workers()
    try:
        untraced, _ = _round(tally, ops, n_workers, out, "untraced")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced, _ = _round(tally, ops, n_workers, out, "traced")
        metrics = tracing.layer_metrics(tracer.spans)
        pool = tracing.pool_stats(tracer.spans)
        pool_1 = pool
        if workload.parallel:
            tracer_1 = tracing.Tracer()
            with tracing.installed(tracer_1):
                _round(tally, ops, 1, out, "traced-1")
            pool_1 = tracing.pool_stats(tracer_1.spans)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    metrics.update({
        "pool.members": pool["members"],
        "pool.busy_s": pool["busy_s"],
        "pool.contention_s": pool["busy_s"] - pool_1["busy_s"],
        "pool.failed": pool["failed"],
        "pool.speedup_2v1": pool_1["wall_s"] / pool["wall_s"] if pool["wall_s"] else 0.0,
        "trace.overhead_frac": sum(traced) / sum(untraced) - 1.0,
    })
    metrics.update(kernel_section(400.0 * kernel_scale, 50.0 * kernel_scale))
    units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    return {"tally": tally, "metrics": metrics, "units": units,
            "notes": [f"untraced jobs (s): {[round(t, 4) for t in untraced]}",
                      f"traced jobs (s): {[round(t, 4) for t in traced]}",
                      f"{len(tracer.spans)} spans at {n_workers} worker(s)"]}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def render(name: str, seed: int, result: Dict[str, object], env: Dict[str, object]) -> List[str]:
    """Human-readable lines, then the JSON result as the last line."""
    tally: Tally = result["tally"]
    metrics, units = result["metrics"], result["units"]
    lines = [f"env {json.dumps(env, sort_keys=True)}", f"workload {name} seed {seed}"]
    lines += [f"  note: {note}" for note in result["notes"]]
    for metric, unit in units.items():
        lines.append(f"  {metric:42s} {metrics[metric]:.6g} {unit}")
    lines.append(f"  {'failed_frac':42s} {tally.failed / tally.attempted:.6g} fraction "
                 f"({tally.failed} of {tally.attempted} ops)")
    lines += [f"  problem: {p}" for p in tally.problems]
    lines.append(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import lmg_adiabat from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_end_to_end(args.workload, args.seed, args.seconds)
    for line in render(args.workload, args.seed, result, environment()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
