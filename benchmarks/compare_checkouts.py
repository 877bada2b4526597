#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and write a BENCH json.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
the parent checkout and once in the change checkout, alternating which side
goes first, and reads the JSON line that ``run.py`` prints last.  For every
end-to-end metric the output records each side's runs, median and quartiles,
and how many pairs the change won (ties count for neither side).  The ``env``
record names the kernel set the change checkout integrates on
(``_kernels.get_kernels().name``) and the machine it ran on.

Before the first pair both checkouts are byte-compiled
(``python -m compileall -q src``), and ``env`` records that they were:
where ``PYTHONDONTWRITEBYTECODE`` is set, or a checkout is read-only,
``run.py``'s setup imports would otherwise compile whichever side has no
bytecode caches from source on every sample, and a side compiled earlier
would read about 25% faster on ``setup_s``.

Usage:

    python benchmarks/compare_checkouts.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \\
        --run simulate-cases:0:10 --run ensemble-disorder:0:5 [--seconds 20]

where each ``--run`` is ``workload:seed:pairs``.  Runs are appended to an
existing output file, so a long comparison can be made in parts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: End-to-end metric -> which direction is better.
BETTER = {"setup_s": "lower", "job_p50_s": "lower", "trajectories_per_s": "higher",
          "peak_rss_mb": "lower"}


def run_once(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(out)
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def compile_sources(checkout):
    """Byte-compile the package of a checkout, so that neither side imports from source."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def environment(checkout):
    code = ("import json, os, platform, numpy; from lmg_adiabat import _kernels; "
            "print(json.dumps({'backend': _kernels.get_kernels().name, "
            "'numpy': numpy.__version__, 'python': platform.python_version(), "
            "'nproc': len(os.sched_getaffinity(0))}))")
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    record = json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        record["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "unknown")
    return record


def summary(parent_runs, change_runs):
    out = {}
    for name, better in BETTER.items():
        parent = [r[name] for r in parent_runs]
        change = [r[name] for r in change_runs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        quartiles = {side: statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
                     for side, runs in (("parent", parent), ("change", change))}
        out[name] = {
            "better": better,
            "parent_median": statistics.median(parent),
            "parent_quartiles": [quartiles["parent"][0], quartiles["parent"][2]],
            "change_median": statistics.median(change),
            "change_quartiles": [quartiles["change"][0], quartiles["change"][2]],
            "change_wins": wins,
            "pairs": len(parent),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--run", action="append", required=True, help="workload:seed:pairs")
    parser.add_argument("--seconds", type=float, default=20.0)
    opts = parser.parse_args()

    path = Path(opts.out)
    bench = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    for checkout in (opts.parent, opts.change):
        compile_sources(checkout)
    bench["env"] = {**environment(opts.change), "compiled": True}
    bench["seconds"] = opts.seconds
    for spec in opts.run:
        workload, seed, pairs = spec.split(":")
        key = f"{workload} seed {seed}"
        entry = bench["runs"].setdefault(key, {"parent": [], "change": []})
        for _ in range(int(pairs)):
            order = [("parent", opts.parent), ("change", opts.change)]
            if len(entry["parent"]) % 2:  # the change goes first in every other pair
                order.reverse()
            for side, checkout in order:
                entry[side].append(run_once(checkout, workload, int(seed), opts.seconds))
            print(f"{key} pair {len(entry['parent'])}: "
                  f"{entry['parent'][-1]['trajectories_per_s']:.3f} -> "
                  f"{entry['change'][-1]['trajectories_per_s']:.3f} trajectories/s", flush=True)
            entry["summary"] = summary(entry["parent"], entry["change"])
            path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
