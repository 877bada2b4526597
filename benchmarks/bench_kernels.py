#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times the master-equation kernel on the case I transfer at several register
sizes (and at N=4 without dephasing) and the pure-state kernel on the joint spin+resonator model (Fock
cutoffs 6, 8 and 12, i.e. dims 24, 32 and 48), printing
per-backend wall times and the speedup.  The first numba call includes JIT
compilation and is reported separately.  A last section times the 13 members
of the criterion-8 disorder ensemble integrated as one batch against 13
single-run calls, per member and step.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""
import argparse
import time

import numpy as np

from lmg_adiabat import _kernels
from lmg_adiabat.dynamics import _term_union, calibrated_schedule, dephasing_mask
from lmg_adiabat.model import FullModelParams, full_interaction_hamiltonian, lmg_sweep_hamiltonian
from lmg_adiabat.operators import SpinRegister
from lmg_adiabat.protocols import preset, reference_disorder_profiles
from lmg_adiabat.states import density_from_state


def lindblad_workload(n_spins, t_final=4000.0, step=0.25, gamma=1e-4):
    cfg = preset("I", n_spins, gamma=gamma)
    reg = SpinRegister(n_spins)
    sched = calibrated_schedule(t_final=t_final)
    ham = lmg_sweep_hamiltonian(reg, 0.1, -1.1, sched.omega1, sched.omega2)
    n_steps = int(round(t_final / step))
    half_times = (step / 2.0) * np.arange(2 * n_steps + 1)
    ctab = np.ascontiguousarray(ham.coefficient_table(half_times))
    from lmg_adiabat.dynamics import dephasing_mask

    w = dephasing_mask((gamma,) * n_spins)
    rho0 = density_from_state(cfg.initial_state())
    idx = np.unique(np.round(np.linspace(0, n_steps, 101)).astype(np.int64))
    d = reg.dim
    args = (
        np.ascontiguousarray(ham.terms), ctab, w, rho0, step, idx,
        np.zeros((0, d), dtype=np.complex128),
        np.zeros((0, d), dtype=np.complex128),
        np.zeros((0, d, d), dtype=np.complex128),
        False,
    )
    return "lindblad", f"N={n_spins} (dim {d}) gamma {gamma:g}, {n_steps} steps", args


def schrodinger_workload(cutoff=8, t_final=500.0, step=0.02):
    params = FullModelParams(n_spins=2, fock_cutoff=cutoff, eta=0.1, delta=-1.1,
                             omega1=0.3, omega2=0.0)
    ham = full_interaction_hamiltonian(params)
    n_steps = int(round(t_final / step))
    half_times = (step / 2.0) * np.arange(2 * n_steps + 1)
    ctab = np.ascontiguousarray(ham.coefficient_table(half_times))
    psi0 = np.zeros(ham.dim, dtype=np.complex128)
    psi0[0] = 1.0
    idx = np.unique(np.round(np.linspace(0, n_steps, 101)).astype(np.int64))
    args = (np.ascontiguousarray(ham.terms), ctab, psi0, step, idx)
    return "schrodinger", f"N=2 x cutoff {cutoff} (dim {ham.dim}), {n_steps} steps", args


def batch_workload(t_final=1000.0, step=0.25, gamma=1e-4):
    """Criterion-8 members (baseline + 12 disorder profiles, N=4) as batch and single calls."""
    cfg = preset("I", 4, detuning_magnitude=0.9, gamma=gamma)
    reg = SpinRegister(4)
    sched = cfg.schedule
    hams = [
        lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, sched.omega1, sched.omega2, profile)
        for profile in [None, *reference_disorder_profiles(cfg.eta)]
    ]
    n_steps = int(round(t_final / step))
    half_times = (step / 2.0) * np.arange(2 * n_steps + 1)
    tables = [ham.coefficient_table(half_times) for ham in hams]
    terms, columns = _term_union(hams)
    ctab = np.zeros((half_times.size, len(hams), terms.shape[0]))
    for b, (table, cols) in enumerate(zip(tables, columns)):
        ctab[:, b, cols] = table
    w = dephasing_mask(cfg.gammas())
    rho0 = density_from_state(cfg.initial_state())
    idx = np.unique(np.round(np.linspace(0, n_steps, 101)).astype(np.int64))
    d = reg.dim
    no_forms = (np.zeros((0, d), dtype=np.complex128), np.zeros((0, d), dtype=np.complex128),
                np.zeros((0, d, d), dtype=np.complex128), False)
    batch = (terms, ctab, w, np.stack([rho0] * len(hams)), step, idx, *no_forms)
    singles = [
        (np.ascontiguousarray(ham.terms), table, w, rho0, step, idx, *no_forms)
        for ham, table in zip(hams, tables)
    ]
    return f"{len(hams)} members, dim {d}, {n_steps} steps", batch, singles


def time_call(fn, args, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions (best-of)")
    opts = parser.parse_args()

    workloads = [
        lindblad_workload(3),
        lindblad_workload(4),
        lindblad_workload(4, gamma=0.0),  # no dissipator: the gamma-0 simulate jobs
        lindblad_workload(6),
        schrodinger_workload(6),  # dim 24 and 48: the two runs of validate-reduction --cutoff 6
        schrodinger_workload(8),
        schrodinger_workload(12),
    ]

    numpy_k = _kernels.get_kernels("numpy")
    have_numba = _kernels.NUMBA_AVAILABLE
    if have_numba:
        t0 = time.perf_counter()
        numba_k = _kernels.get_kernels("numba")
        kind, _, args = workloads[0]
        getattr(numba_k, f"{kind}_rk4")(*args)
        print(f"numba warmup (compile + first run): {time.perf_counter() - t0:.2f} s\n")
    else:
        print("numba not importable: timing the numpy path only\n")

    header = f"{'workload':52s} {'numpy':>10s} {'numba':>10s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for kind, label, args in workloads:
        t_np = time_call(getattr(numpy_k, f"{kind}_rk4"), args, opts.repeat)
        if have_numba:
            t_nb = time_call(getattr(numba_k, f"{kind}_rk4"), args, opts.repeat)
            print(f"{kind + ': ' + label:52s} {t_np:9.3f}s {t_nb:9.3f}s {t_np / t_nb:8.1f}x")
        else:
            print(f"{kind + ': ' + label:52s} {t_np:9.3f}s {'-':>10s} {'-':>9s}")

    label, batch, singles = batch_workload()
    member_steps = len(singles) * ((batch[1].shape[0] - 1) // 2)
    print(f"\nbatched lindblad: {label} (us per member-step)")
    header = f"{'backend':10s} {'batch':>10s} {'singles':>10s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for kern in [numpy_k, numba_k] if have_numba else [numpy_k]:
        t_batch = time_call(kern.lindblad_rk4, batch, opts.repeat)
        t_singles = time_call(lambda: [kern.lindblad_rk4(*args) for args in singles], (),
                              opts.repeat)
        print(f"{kern.name:10s} {1e6 * t_batch / member_steps:10.2f} "
              f"{1e6 * t_singles / member_steps:10.2f} {t_singles / t_batch:8.1f}x")


if __name__ == "__main__":
    main()
