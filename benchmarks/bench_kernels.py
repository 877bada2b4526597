#!/usr/bin/env python3
"""Benchmark the integration kernels: CF4 against RK4, batch against single runs.

Times the RK4 master-equation kernel on the case I transfer at several
register sizes (and at N=4 without dephasing) and the pure-state kernel on
the joint spin+resonator model (Fock cutoffs 6, 8 and 12, i.e. dims 24, 32
and 48).  A second section times the CF4 master-equation kernel, the one
the integrators call, at its default step 1.0 on the N=4 transfer next to
the RK4 reference at step 0.25.  A third section times the 13 members of the
criterion-8 disorder ensemble with the CF4 kernel at step 1.0 integrated as
one batch against 13 single-run calls, per member and step, the same batch
restricted to the spin-flip parity block its initial states can reach (dim 8
instead of 16), as `evolve_batch` integrates a dephased batch, and, at
gamma 0, on the invariant subspace of its initial state (dim 3) against
that parity block, as `evolve_batch` integrates it without dephasing.  A
fourth section times that parity-block batch at gamma 0, where the kernel
fuses the steps of each sample interval into one propagator, and at
gamma 1e-4, where it conjugates rho step by step, per member and step.  The
next section times the CF4 step propagators of that batch on its parity
block, built in the kernel's stacks of `_kernels.STACK_BYTES`, per
exponential, next to one batched `np.linalg.eigh` of the same Simpson
moments, and the exponentials of real moments at d = 2 and 3 in closed form
(`_kernels._exp_closed_form`) against the series (`_kernels._exp_series`),
on the invariant subspaces of a case I run at N = 3 (d = 2) and of the
gamma-0 batch (d = 3).  The last section times single case I runs at 1 kHz
and step 1.0 for N = 3 to 6 on their parity block, stepping rho one step at
a time, and on the operator subspace of that block that `evolve_batch`
integrates them on, where the step matrices of each sample interval are
fused, in microseconds per step.  The kernel carries its step propagators as real
block forms [[P, -Q], [Q, P]] of U = P + iQ, so a final section times one
stack of small products in complex128 against the same products in block
form at d = 2 to 64, and the gamma-0 kernel, which builds and fuses those
block forms, on the parity block of case I at N = 4 to 7 (d = 8 to 64), in
microseconds per member-step.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""
import argparse
import time

import numpy as np

from lmg_adiabat import _kernels
from lmg_adiabat.dynamics import (
    _Plan,
    _integration_plans,
    _reachable_indices,
    _term_union,
    calibrated_schedule,
    dephasing_mask,
)
from lmg_adiabat.model import FullModelParams, full_interaction_hamiltonian, lmg_sweep_hamiltonian
from lmg_adiabat.operators import SpinRegister
from lmg_adiabat.protocols import preset, reference_disorder_profiles
from lmg_adiabat.states import density_from_state


def _no_forms(d):
    """The form and state-storage arguments of a kernel call that samples no forms."""
    return np.zeros((0, d), dtype=np.complex128), np.zeros((0, d), dtype=np.complex128), False


def lindblad_workload(n_spins, t_final=4000.0, step=0.25, gamma=1e-4):
    cfg = preset("I", n_spins, gamma=gamma)
    reg = SpinRegister(n_spins)
    sched = calibrated_schedule(t_final=t_final)
    ham = lmg_sweep_hamiltonian(reg, 0.1, -1.1, sched.omega1, sched.omega2)
    n_steps = int(round(t_final / step))
    half_times = (step / 2.0) * np.arange(2 * n_steps + 1)
    ctab = np.ascontiguousarray(ham.coefficient_table(half_times)[:, None, :])  # a batch of one
    w = dephasing_mask((gamma,) * n_spins)
    rho0 = density_from_state(cfg.initial_state())[None]
    idx = np.unique(np.round(np.linspace(0, n_steps, 101)).astype(np.int64))
    d = reg.dim
    args = (np.ascontiguousarray(ham.terms), ctab, w, rho0, step, idx, *_no_forms(d))
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


def batch_workload(t_final=1000.0, step=1.0, gamma=1e-4):
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
    no_forms = _no_forms(d)
    batch = (terms, ctab, w, np.stack([rho0] * len(hams)), step, idx, *no_forms)
    singles = [  # batches of one
        (np.ascontiguousarray(ham.terms), table[:, None, :], w, rho0[None], step, idx, *no_forms)
        for ham, table in zip(hams, tables)
    ]
    return f"{len(hams)} members, dim {d}, {n_steps} steps", batch, singles


def parity_block(batch):
    """The batch's kernel arguments restricted to the block its initial states reach."""
    terms, _, _, rho0s, *_ = batch
    keep = _reachable_indices(terms, rho0s)
    return restricted(batch, _Plan(slice(None), np.eye(rho0s.shape[1])[:, keep], "basis states"))


def invariant_subspace(batch):
    """The gamma-0 batch's kernel arguments on the invariant subspace of its initial states."""
    terms, _, w, rho0s, *_ = batch
    (plan,) = _integration_plans(terms, [range(len(terms))] * len(rho0s), w, rho0s)
    assert plan.kind == "subspace"
    return restricted(batch, plan)


def restricted(batch, plan):
    terms, ctab, w, rho0s, step, idx, form_left, form_right, store_rho = batch
    terms, w, rho0s, form_left, form_right = plan.restrict(terms, w, rho0s, form_left, form_right)
    return plan.dim, (terms, ctab, w, rho0s, step, idx, form_left, form_right, store_rho)


def kernel_stacks(ctab, d):
    """The coefficient rows of each stack of steps that the CF4 kernel builds at once."""
    n_steps, b = (ctab.shape[0] - 1) // 2, ctab.shape[1]
    count = -(-n_steps // max(1, _kernels.STACK_BYTES // (16 * b * d * d)))
    bounds = [n_steps * k // count for k in range(count + 1)]
    return [ctab[2 * lo:2 * hi + 1] for lo, hi in zip(bounds, bounds[1:])]


def propagator_workload(block):
    """The parity-block batch's Simpson moments and its propagator builds, stack by stack."""
    terms, ctab, _, _, step, *_ = block
    d = terms.shape[1]
    stage_terms, stage_dtype = _kernels._stage_terms(terms)
    stacks = kernel_stacks(ctab, d)

    def build():
        for rows in stacks:
            _kernels._cf4_propagators(rows, stage_terms, stage_dtype, step, d)

    c0, cm, c1 = ctab[:-1:2], ctab[1::2], ctab[2::2]
    moments = np.concatenate([3.0 * c0 + 4.0 * cm - c1, 4.0 * cm + 3.0 * c1 - c0], axis=1) / 12.0
    hams = (moments @ stage_terms).view(stage_dtype).reshape(-1, d, d)
    return build, hams


def exponential_workload(block):
    """The block's Simpson moments, in the stacks that the CF4 kernel exponentiates."""
    terms, ctab, *_ = block
    kk, d, _ = terms.shape
    stage_terms, stage_dtype = _kernels._stage_terms(terms)
    return [(_kernels._simpson_moments(rows).reshape(-1, kk) @ stage_terms)
            .view(stage_dtype).reshape(-1, d, d) for rows in kernel_stacks(ctab, d)]


def operator_workload(n_spins, t_final=1000.0):
    """A case I run at 1 kHz on its parity block, and its operator subspace there."""
    _, _, args = lindblad_workload(n_spins, t_final=t_final, step=1.0)
    terms, _, w, rho0, *_ = args
    (plan,) = _integration_plans(terms, [range(len(terms))], w, rho0)
    assert plan.kind == "operator subspace"
    _, block = restricted(args, plan)  # the kernel inputs on the plan's block
    return plan.q.shape[1], plan.dim, block, plan.operators


def product_workload(d):
    """A stack of complex d x d propagators, and the same stack in block form."""
    count = max(16, _kernels.STACK_BYTES // (16 * d * d))
    rng = np.random.default_rng(d)
    u = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    blocks = np.block([[u.real, -u.imag], [u.imag, u.real]])
    return u, blocks


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
        # dim 24 and 48 (cutoffs 6 and 12): the full runs of a two-tone
        # validate-reduction at --cutoff 6; one-tone runs are solved without this kernel
        schrodinger_workload(6),
        schrodinger_workload(8),
        schrodinger_workload(12),
    ]

    kern = _kernels.get_kernels()
    header = f"{'workload':52s} {'time':>10s}"
    print(header)
    print("-" * len(header))
    for kind, label, args in workloads:
        t = time_call(getattr(kern, f"{kind}_rk4"), args, opts.repeat)
        print(f"{kind + ': ' + label:52s} {t:9.3f}s")

    print("\nmaster-equation step: CF4 at 1.0 against RK4 at 0.25")
    header = f"{'kernel':10s} {'workload':40s} {'time':>10s} {'us/step':>10s}"
    print(header)
    print("-" * len(header))
    rows = [("cf4", kern.lindblad_cf4, lindblad_workload(4, step=1.0)),
            ("rk4", kern.lindblad_rk4, lindblad_workload(4))]
    for name, fn, (_, label, args) in rows:
        t = time_call(fn, args, opts.repeat)
        n_steps = (args[1].shape[0] - 1) // 2
        print(f"{name:10s} {label:40s} {t:9.3f}s {1e6 * t / n_steps:10.1f}")

    label, batch, singles = batch_workload()
    block_dim, block = parity_block(batch)
    member_steps = len(singles) * ((batch[1].shape[0] - 1) // 2)
    print(f"\nbatched CF4 lindblad: {label} (us per member-step)")
    header = f"{'batch':>10s} {'singles':>10s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    t_batch = time_call(kern.lindblad_cf4, batch, opts.repeat)
    t_singles = time_call(lambda: [kern.lindblad_cf4(*args) for args in singles], (),
                          opts.repeat)
    print(f"{1e6 * t_batch / member_steps:10.2f} {1e6 * t_singles / member_steps:10.2f} "
          f"{t_singles / t_batch:8.1f}x")
    t_block = time_call(kern.lindblad_cf4, block, opts.repeat)
    print(f"{1e6 * t_block / member_steps:10.2f} {'-':>10s} {t_batch / t_block:8.1f}x"
          f"  (batch on its parity block, dim {block_dim})")

    unitary = batch_workload(gamma=0.0)[1]
    _, unitary_block = parity_block(unitary)
    sub_dim, sub = invariant_subspace(unitary)
    print(f"\nCF4 gamma-0 batch: {label} (us per member-step)")
    header = f"{'subspace':>10s} {'block':>10s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    t_sub = time_call(kern.lindblad_cf4, sub, opts.repeat)
    t_unitary_block = time_call(kern.lindblad_cf4, unitary_block, opts.repeat)
    print(f"{1e6 * t_sub / member_steps:10.2f} {1e6 * t_unitary_block / member_steps:10.2f} "
          f"{t_unitary_block / t_sub:8.1f}x  (invariant subspace, dim {sub_dim}, "
          f"against the parity block, dim {block_dim})")

    print(f"\nCF4 parity-block batch with and without dephasing: {label}")
    header = f"{'gamma':>8s} {'segment':>12s} {'us/member-step':>15s}"
    print(header)
    print("-" * len(header))
    for gamma, segment in [(0.0, "interval"), (1e-4, "step")]:
        _, gamma_block = parity_block(batch_workload(gamma=gamma)[1])
        t = time_call(kern.lindblad_cf4, gamma_block, opts.repeat)
        print(f"{gamma:8g} {segment:>12s} {1e6 * t / member_steps:15.2f}")

    build, hams = propagator_workload(block)
    print(f"\nCF4 step exponentials: {label} on dim {block_dim}, step {block[4]:g}")
    header = f"{'build':>10s} {'eigh':>10s}  (us per exponential)"
    print(header)
    print("-" * len(header))
    t_build = time_call(build, (), opts.repeat)
    t_eigh = time_call(np.linalg.eigh, (hams,), opts.repeat)
    print(f"{1e6 * t_build / len(hams):10.3f} {1e6 * t_eigh / len(hams):10.3f}")

    print("\nCF4 step exponentials of real moments at d = 2 and 3: closed form against the"
          "\nseries, on the invariant subspaces of case I at N = 3 (one run) and of the"
          "\ncriterion-8 batch at gamma 0, step 1.0 (us per exponential)")
    header = f"{'run':>10s} {'d':>3s} {'closed':>10s} {'series':>10s} {'series/closed':>14s}"
    print(header)
    print("-" * len(header))
    single = lindblad_workload(3, t_final=1000.0, step=1.0, gamma=0.0)[2]
    for name, (dim, space) in [("N=3", invariant_subspace(single)), ("13 members", (sub_dim, sub))]:
        stacks = exponential_workload(space)
        count = sum(len(s) for s in stacks)
        t_closed, t_series = (time_call(lambda: [exp(s, space[4]) for s in stacks], (), opts.repeat)
                              for exp in (_kernels._exp_closed_form, _kernels._exp_series))
        print(f"{name:>10s} {dim:3d} {1e6 * t_closed / count:10.3f} {1e6 * t_series / count:10.3f} "
              f"{t_series / t_closed:13.2f}x")

    print("\nCF4 dephased run, case I at gamma 1e-4 and step 1.0: per-step loop on the parity"
          "\nblock against fused intervals on its operator subspace (us per step)")
    header = f"{'N':>3s} {'block':>6s} {'space':>6s} {'per step':>10s} {'operator':>10s} {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for n in (3, 4, 5, 6):
        k, r, block, operators = operator_workload(n)
        n_steps = (block[1].shape[0] - 1) // 2
        t_step = time_call(kern.lindblad_cf4, block, opts.repeat)
        t_operator = time_call(kern.lindblad_cf4, (*block, operators), opts.repeat)
        print(f"{n:3d} {k:6d} {r:6d} {1e6 * t_step / n_steps:10.2f} "
              f"{1e6 * t_operator / n_steps:10.2f} {t_step / t_operator:8.1f}x")

    print("\nstacked products of d x d propagators: complex128 against the real block form"
          "\n(2d x 2d float64) the CF4 kernel uses (us per product, 10 stack products)")
    header = f"{'d':>3s} {'stack':>6s} {'complex':>10s} {'block':>10s} {'block/complex':>14s}"
    print(header)
    print("-" * len(header))
    for d in (2, 3, 4, 8, 16, 32, 64):
        u, blocks = product_workload(d)
        t_complex, t_block = (time_call(lambda a: [a @ a for _ in range(10)], (x,), opts.repeat)
                              for x in (u, blocks))
        per = 1e6 / (10 * len(u))
        print(f"{d:3d} {len(u):6d} {per * t_complex:10.3f} {per * t_block:10.3f} "
              f"{t_block / t_complex:13.2f}x")

    print("\nCF4 gamma-0 kernel on the parity block, case I at step 1.0 (block-form"
          "\npropagators built and fused per sample interval)")
    header = f"{'N':>3s} {'block':>6s} {'us/member-step':>15s}"
    print(header)
    print("-" * len(header))
    for n in (4, 5, 6, 7):
        k, block = parity_block(lindblad_workload(n, t_final=200.0, step=1.0, gamma=0.0)[2])
        t = time_call(kern.lindblad_cf4, block, opts.repeat)
        print(f"{n:3d} {k:6d} {1e6 * t / ((block[1].shape[0] - 1) // 2):15.2f}")


if __name__ == "__main__":
    main()
