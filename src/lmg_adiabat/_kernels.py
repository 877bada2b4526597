"""Hot integration loops: numba-jitted kernels with a pure-numpy fallback.

Both backends integrate the same fixed-step RK4 scheme against a Hamiltonian
given as a stack of constant Hermitian terms plus a per-stage coefficient
table (rows on the half-step grid t0, t0+dt/2, t0+dt, ...).  The backend is
not a setting: it is numba when numba imports and numpy otherwise.  Both
paths stay importable by name so they can be tested and benchmarked against
each other.

The Lindblad kernels also take a batch: a (2n+1, B, K) table with a
(B, d, d) stack of initial states integrates B members that share the terms,
the dissipator mask and the sampled quantities, and puts a leading B axis on
every output.  The numpy kernel runs the whole batch in one loop (a single
run is its batch of one); the numba kernel runs the jitted single-run loop
member by member.

The numpy Lindblad kernel forms each commutator from one product: with
y = h x, -i[h, x] = -i (y - y†), because x h = (h x)† for Hermitian h and x.
Every stage, and so every step, is then exactly Hermitian, and the
initial state is Hermitized once on entry instead of re-Hermitizing after
every step.  When the terms are real (every LMG term is real symmetric in
the z basis) the stage Hamiltonians stay real and h x is one real product on
the float64 view of x.  The loop twin keeps the two-product commutator and
the per-step re-Hermitization as the reference it is tested against.
"""
from __future__ import annotations

import threading
from typing import NamedTuple, Optional

import numpy as np

try:
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only on minimal installs
    numba = None
    NUMBA_AVAILABLE = False

# ---------------------------------------------------------------------------
# loop-style sources (numba targets; also runnable as plain python for tests)
# ---------------------------------------------------------------------------

def _lindblad_rk4_loops(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, obs, store_rho):
    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]
    nf = form_left.shape[0]
    nb = obs.shape[0]

    forms = np.zeros((m, nf), dtype=np.complex128)
    expvals = np.zeros((m, nb), dtype=np.float64)
    purity = np.zeros(m, dtype=np.float64)
    trace_defect = np.zeros(m, dtype=np.float64)
    herm_defect = np.zeros(m, dtype=np.float64)
    n_keep = m if store_rho else 0
    rho_samples = np.zeros((n_keep, d, d), dtype=np.complex128)

    rho = rho0.copy()
    h = np.zeros((d, d), dtype=np.complex128)
    raw_defect = 0.0
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            for f in range(nf):
                acc = 0.0 + 0.0j
                for i in range(d):
                    row = 0.0 + 0.0j
                    for j in range(d):
                        row += rho[i, j] * form_right[f, j]
                    acc += np.conj(form_left[f, i]) * row
                forms[ptr, f] = acc
            for b in range(nb):
                tr = 0.0 + 0.0j
                for i in range(d):
                    for j in range(d):
                        tr += obs[b, i, j] * rho[j, i]
                expvals[ptr, b] = tr.real
            pur = 0.0
            tr = 0.0 + 0.0j
            for i in range(d):
                tr += rho[i, i]
                for j in range(d):
                    v = rho[i, j]
                    pur += v.real * v.real + v.imag * v.imag
            purity[ptr] = pur
            trace_defect[ptr] = abs(tr - 1.0)
            herm_defect[ptr] = raw_defect
            if store_rho:
                rho_samples[ptr] = rho
            ptr += 1
        if step == n_steps:
            break

        c0 = ctab[2 * step]
        cm = ctab[2 * step + 1]
        c1 = ctab[2 * step + 2]

        h[:, :] = 0.0
        for k in range(kk):
            h += c0[k] * terms[k]
        k1 = -1j * (h @ rho - rho @ h) + w * rho

        h[:, :] = 0.0
        for k in range(kk):
            h += cm[k] * terms[k]
        x = rho + (0.5 * dt) * k1
        k2 = -1j * (h @ x - x @ h) + w * x
        x = rho + (0.5 * dt) * k2
        k3 = -1j * (h @ x - x @ h) + w * x

        h[:, :] = 0.0
        for k in range(kk):
            h += c1[k] * terms[k]
        x = rho + dt * k3
        k4 = -1j * (h @ x - x @ h) + w * x

        raw = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if ptr < m and sample_idx[ptr] == step + 1:
            s = 0.0
            for i in range(d):
                for j in range(d):
                    dv = raw[i, j] - np.conj(raw[j, i])
                    s += dv.real * dv.real + dv.imag * dv.imag
            raw_defect = np.sqrt(s)
        rho = 0.5 * (raw + raw.conj().T)

    return forms, expvals, purity, trace_defect, herm_defect, rho_samples, rho


def _schrodinger_rk4_loops(terms, ctab, psi0, dt, sample_idx):
    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]

    psi_samples = np.zeros((m, d), dtype=np.complex128)
    psi = psi0.copy()
    h = np.zeros((d, d), dtype=np.complex128)
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            psi_samples[ptr] = psi
            ptr += 1
        if step == n_steps:
            break

        c0 = ctab[2 * step]
        cm = ctab[2 * step + 1]
        c1 = ctab[2 * step + 2]

        h[:, :] = 0.0
        for k in range(kk):
            h += c0[k] * terms[k]
        k1 = -1j * (h @ psi)

        h[:, :] = 0.0
        for k in range(kk):
            h += cm[k] * terms[k]
        k2 = -1j * (h @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h @ (psi + (0.5 * dt) * k2))

        h[:, :] = 0.0
        for k in range(kk):
            h += c1[k] * terms[k]
        k4 = -1j * (h @ (psi + dt * k3))

        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return psi_samples, psi


# ---------------------------------------------------------------------------
# vectorized pure-numpy fallback
# ---------------------------------------------------------------------------

def _real_terms(terms):
    """(K, 2 d^2) float64 view of the terms, for one real product per step.

    A real product of the real coefficients with this view builds the stage
    Hamiltonians without casting the coefficients to complex, which is
    several times slower.
    """
    kk, d, _ = terms.shape
    return np.ascontiguousarray(terms, dtype=np.complex128).reshape(kk, d * d).view(np.float64)


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

    forms = np.zeros((b, m, form_left.shape[0]), dtype=np.complex128)
    expvals = np.zeros((b, m, obs.shape[0]), dtype=np.float64)
    purity = np.zeros((b, m), dtype=np.float64)
    trace_defect = np.zeros((b, m), dtype=np.float64)
    herm_defect = np.zeros((b, m), dtype=np.float64)
    rho_samples = np.zeros((b, m if store_rho else 0, d, d), dtype=np.complex128)

    left_c = form_left.conj()
    if np.any(terms.imag):
        stage_terms, stage_dtype = _real_terms(terms), np.complex128

        def product(h, x):
            return h @ x
    else:
        # real symmetric terms (every LMG term): real stage Hamiltonians, and
        # one real product per stage on the float64 view of x
        stage_terms = np.ascontiguousarray(terms.real).reshape(kk, d * d)
        stage_dtype = np.float64

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

    return forms, expvals, purity, trace_defect, herm_defect, rho_samples, rho


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
# backend selection
# ---------------------------------------------------------------------------

class Kernels(NamedTuple):
    name: str
    lindblad_rk4: object
    schrodinger_rk4: object


_NUMPY_KERNELS = Kernels("numpy", _lindblad_rk4_numpy, _schrodinger_rk4_numpy)
_numba_kernels: Optional[Kernels] = None
_numba_lock = threading.Lock()


def over_members(single):
    """Give a single-run Lindblad kernel the batch form by looping over members.

    A ``ctab`` of shape (2n+1, B, K) with ``rho0`` of shape (B, d, d) runs
    member by member and stacks the outputs on a leading B axis; the
    single-run form passes straight through.
    """
    def kernel(terms, ctab, w, rho0, dt, sample_idx, form_left, form_right, obs, store_rho):
        if ctab.ndim == 2:
            return single(terms, ctab, w, rho0, dt, sample_idx,
                          form_left, form_right, obs, store_rho)
        outs = [
            single(terms, np.ascontiguousarray(ctab[:, b]), w, np.ascontiguousarray(rho0[b]),
                   dt, sample_idx, form_left, form_right, obs, store_rho)
            for b in range(ctab.shape[1])
        ]
        return tuple(np.stack(x) for x in zip(*outs))

    return kernel


def _compile_numba_kernels() -> Kernels:
    global _numba_kernels
    with _numba_lock:  # sweep threads may hit the first compile concurrently
        if _numba_kernels is None:
            jit = numba.njit(cache=True, nogil=True)
            _numba_kernels = Kernels(
                "numba",
                over_members(jit(_lindblad_rk4_loops)),
                jit(_schrodinger_rk4_loops),
            )
    return _numba_kernels


def resolve_backend() -> str:
    """The backend every integration runs on: numba if importable, else numpy."""
    return "numba" if NUMBA_AVAILABLE else "numpy"


def get_kernels(backend: Optional[str] = None) -> Kernels:
    """Kernel set of the installed backend, or of one named explicitly.

    Naming ``"numpy"`` or ``"numba"`` is for tests and kernel benchmarks;
    the integrators always take the installed backend.
    """
    name = resolve_backend() if backend is None else backend
    if name == "numpy":
        return _NUMPY_KERNELS
    if name == "numba":
        if not NUMBA_AVAILABLE:
            raise RuntimeError("the numba kernels were requested but numba is not importable")
        return _compile_numba_kernels()
    raise ValueError(f"unknown backend {name!r}; use numba or numpy")
