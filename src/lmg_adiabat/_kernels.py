"""Hot integration loops: one set of numpy kernels.

Every kernel integrates with a fixed step against a Hamiltonian given as a
stack of constant Hermitian terms plus a coefficient table (rows on the
half-step grid t0, t0+dt/2, t0+dt, ...).

The master equation is integrated by ``lindblad_cf4``
(:func:`_lindblad_cf4_numpy`): a 4th-order commutator-free Magnus step
(Blanes & Moan 2006; Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011))
for H(t), with the sigma_z dephasing applied exactly as elementwise
half-steps exp(W dt / 2).  Its propagators come from batched
eigendecompositions of many steps at once, so a step costs a few small
products; the step is CPTP, so it cannot blow up, and its size is set by how
fast H(t) changes rather than by its norm.

The classical RK4 kernel ``lindblad_rk4`` is the reference the CF4 step is
tested and benchmarked against; ``schrodinger_rk4`` integrates pure states.
The RK4 Lindblad kernel forms each commutator from one product: with
y = h x, -i[h, x] = -i (y - y†), because x h = (h x)† for Hermitian h and x,
so every stage is exactly Hermitian.

The Lindblad kernels also take a batch: a (2n+1, B, K) table with a
(B, d, d) stack of initial states integrates B members that share the terms,
the dissipator mask and the sampled quantities, in one loop, and puts a
leading B axis on every output (a single run is its batch of one).  When the
terms are real (every LMG term is real symmetric in the z basis) the stage
Hamiltonians stay real.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

# ---------------------------------------------------------------------------
# master-equation and pure-state kernels
# ---------------------------------------------------------------------------

def _real_terms(terms):
    """(K, 2 d^2) float64 view of the terms, for one real product per step.

    A real product of the real coefficients with this view builds the stage
    Hamiltonians without casting the coefficients to complex, which is
    several times slower.
    """
    kk, d, _ = terms.shape
    return np.ascontiguousarray(terms, dtype=np.complex128).reshape(kk, d * d).view(np.float64)


def _stage_terms(terms):
    """(K, d^2) terms for one real product per stage, and the stage dtype.

    Real symmetric terms (every LMG term) give real stage Hamiltonians;
    complex terms go through the float64 view of :func:`_real_terms`.
    """
    kk, d, _ = terms.shape
    if np.any(terms.imag):
        return _real_terms(terms), np.complex128
    return np.ascontiguousarray(terms.real).reshape(kk, d * d), np.float64


def _lindblad_outputs(b, m, n_forms, n_obs, d, store_rho):
    """Zeroed sample arrays of a batch of b members with m samples each."""
    return (
        np.zeros((b, m, n_forms), dtype=np.complex128),  # forms
        np.zeros((b, m, n_obs), dtype=np.float64),  # expectation values
        np.zeros((b, m), dtype=np.float64),  # purity
        np.zeros((b, m), dtype=np.float64),  # trace defect
        np.zeros((b, m), dtype=np.float64),  # Hermiticity defect
        np.zeros((b, m if store_rho else 0, d, d), dtype=np.complex128),
    )


def _record(out, ptr, rho, left_c, form_right, obs, store_rho):
    """Write sample ``ptr`` of every member into the arrays of :func:`_lindblad_outputs`."""
    forms, expvals, purity, trace_defect, herm_defect, rho_samples = out
    # member by member, so each member's numbers are those of its own run
    for i, r in enumerate(rho):
        forms[i, ptr] = np.einsum("fi,ij,fj->f", left_c, r, form_right)
        if obs.shape[0]:
            expvals[i, ptr] = np.real(np.einsum("bij,ji->b", obs, r))
        purity[i, ptr] = float(np.real(np.vdot(r, r)))
        trace_defect[i, ptr] = abs(complex(np.trace(r)) - 1.0)
        herm_defect[i, ptr] = np.linalg.norm(r - r.conj().T)
    if store_rho:
        rho_samples[:, ptr] = rho


def _lindblad_rk4_numpy(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, obs, store_rho):
    if ctab.ndim == 2:  # single run: the batch of one
        out = _lindblad_rk4_numpy(terms, ctab[:, None, :], w, rho0[None], dt, sample_idx,
                                  form_left, form_right, obs, store_rho)
        return tuple(x[0] for x in out)

    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    b = ctab.shape[1]
    m = sample_idx.shape[0]
    out = _lindblad_outputs(b, m, form_left.shape[0], obs.shape[0], d, store_rho)
    left_c = form_left.conj()
    stage_terms, stage_dtype = _stage_terms(terms)
    if stage_dtype is np.complex128:
        def product(h, x):
            return h @ x
    else:
        # real stage Hamiltonians: one real product per stage on the float64 view of x
        def product(h, x):
            return (h @ x.view(np.float64)).view(np.complex128)

    dissipate = bool(np.any(w))

    def rhs(h, x):
        # x h = (h x)^H for Hermitian h and x, so each stage is exactly Hermitian
        y = product(h, x)
        k = -1j * (y - y.conj().transpose(0, 2, 1))
        if dissipate:
            k += w * x
        return k

    rho = 0.5 * (rho0 + rho0.conj().transpose(0, 2, 1))
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            _record(out, ptr, rho, left_c, form_right, obs, store_rho)
            ptr += 1
        if step == n_steps:
            break

        # one product builds the three stage Hamiltonians of every member
        stages = ctab[2 * step:2 * step + 3].reshape(3 * b, kk) @ stage_terms
        h0, hm, h1 = stages.view(stage_dtype).reshape(3, b, d, d)

        k1 = rhs(h0, rho)
        k2 = rhs(hm, rho + (0.5 * dt) * k1)
        k3 = rhs(hm, rho + (0.5 * dt) * k2)
        k4 = rhs(h1, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return (*out, rho)


#: Largest stack of small matrices built or diagonalized at once (bytes): the
#: CF4 step propagators (64 steps of one member at d = 8), and in
#: :mod:`lmg_adiabat.dynamics` the gap-scan Hamiltonians and the sampled
#: states whose eigenvalues are checked.  Larger gap-scan stacks saved
#: little time and raised the peak memory of a run.
STACK_BYTES = 1 << 16


def _cf4_propagators(rows, stage_terms, stage_dtype, dt, d):
    """Step propagators U and U^H from half-step coefficient rows (2n+1, B, K).

    Each step's Simpson moments S_a = (3 H_0 + 4 H_1/2 - H_1) / 12 and
    S_b = (-H_0 + 4 H_1/2 + 3 H_1) / 12 give U = exp(-i dt S_b) exp(-i dt S_a),
    each exponential from one eigendecomposition.  A step whose Hamiltonian
    is not finite gets a NaN propagator, which the trace check reports.
    """
    c0, cm, c1 = rows[:-1:2], rows[1::2], rows[2::2]
    n, b, kk = c0.shape
    moments = np.stack([3.0 * c0 + 4.0 * cm - c1, 4.0 * cm + 3.0 * c1 - c0], axis=1) / 12.0
    # a stack of fixed-shape products: each step's bits do not depend on n
    s = (moments.reshape(n, 2 * b, kk) @ stage_terms).view(stage_dtype).reshape(n, 2, b, d, d)
    finite = np.isfinite(s).all(axis=(-2, -1))
    all_finite = finite.all()
    if not all_finite:
        s[~finite] = 0.0  # np.linalg.eigh raises on NaN
    vals, vecs = np.linalg.eigh(s)
    ua, ub = ((vecs * np.exp(-1j * dt * vals)[..., None, :])
              @ vecs.conj().swapaxes(-1, -2)).transpose(1, 0, 2, 3, 4)
    u = ub @ ua  # S_a acts first
    if not all_finite:
        u[~finite.all(axis=1)] = np.nan
    return u, np.ascontiguousarray(u.conj().swapaxes(-1, -2))


def _lindblad_cf4_numpy(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, obs, store_rho):
    """Commutator-free 4th-order Magnus step with exact dephasing half-steps.

    Same arguments and outputs as :func:`_lindblad_rk4_numpy`.  Each step is
    rho <- E o (U (E o rho) U^H) with E = exp(W dt / 2) and U from
    :func:`_cf4_propagators`, then Hermitized; every factor is a CPTP map,
    so the step keeps the trace and positivity at any step size.
    """
    if ctab.ndim == 2:  # single run: the batch of one
        out = _lindblad_cf4_numpy(terms, ctab[:, None, :], w, rho0[None], dt, sample_idx,
                                  form_left, form_right, obs, store_rho)
        return tuple(x[0] for x in out)

    d = terms.shape[1]
    n_steps = (ctab.shape[0] - 1) // 2
    b = ctab.shape[1]
    m = sample_idx.shape[0]
    out = _lindblad_outputs(b, m, form_left.shape[0], obs.shape[0], d, store_rho)
    left_c = form_left.conj()
    stage_terms, stage_dtype = _stage_terms(terms)
    half_damp = np.exp(0.5 * dt * w)
    # 0.5 Hermitizes; 0.5 E also applies the second dephasing half-step
    scale = 0.5 * half_damp
    per_chunk = max(1, STACK_BYTES // (16 * b * d * d))

    rho = 0.5 * (rho0 + rho0.conj().transpose(0, 2, 1))
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            _record(out, ptr, rho, left_c, form_right, obs, store_rho)
            ptr += 1
        if step == n_steps:
            break
        j = step % per_chunk
        if j == 0:
            end = min(step + per_chunk, n_steps)
            u, uh = _cf4_propagators(ctab[2 * step:2 * end + 1], stage_terms, stage_dtype, dt, d)
        y = u[j] @ (half_damp * rho) @ uh[j]
        rho = y + y.conj().transpose(0, 2, 1)
        rho *= scale

    return (*out, rho)


def _schrodinger_rk4_numpy(terms, ctab, psi0, dt, sample_idx):
    d = terms.shape[1]
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]

    psi_samples = np.zeros((m, d), dtype=np.complex128)
    real_terms = _real_terms(terms)
    psi = psi0.copy()
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            psi_samples[ptr] = psi
            ptr += 1
        if step == n_steps:
            break
        stages = ctab[2 * step:2 * step + 3] @ real_terms
        h0, hm, h1 = stages.view(np.complex128).reshape(3, d, d)
        k1 = -1j * (h0 @ psi)
        k2 = -1j * (hm @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (hm @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h1 @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return psi_samples, psi


# ---------------------------------------------------------------------------
# the kernel set
# ---------------------------------------------------------------------------

#: numba is not a backend; only the ``env`` record of ``perfbench/run.py`` reads this.
NUMBA_AVAILABLE = False


class Kernels(NamedTuple):
    name: str
    lindblad_rk4: object
    schrodinger_rk4: object
    lindblad_cf4: object


_KERNELS = Kernels("numpy", _lindblad_rk4_numpy, _schrodinger_rk4_numpy, _lindblad_cf4_numpy)


def resolve_backend() -> str:
    """Name of the kernel set every integration runs on: always ``"numpy"``."""
    return _KERNELS.name


def get_kernels(backend: Optional[str] = None) -> Kernels:
    """The kernel set, which ``backend`` may name (``"numpy"``) and nothing else.

    The integrators look the set up here on every run, so tests and
    ``perfbench`` can wrap this function to record or swap kernels.
    """
    if backend not in (None, _KERNELS.name):
        raise ValueError(f"unknown backend {backend!r}; the only kernel set is numpy")
    return _KERNELS
