"""Hot integration loops: one set of numpy kernels.

Every kernel integrates with a fixed step against a Hamiltonian given as a
stack of constant Hermitian terms plus a coefficient table (rows on the
half-step grid t0, t0+dt/2, t0+dt, ...).

The master equation is integrated by ``lindblad_cf4``
(:func:`_lindblad_cf4_numpy`): a 4th-order commutator-free Magnus step
(Blanes & Moan 2006; Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011))
for H(t), with the sigma_z dephasing applied exactly as elementwise
half-steps exp(W dt / 2).  Its propagators are built for many steps at once
by :func:`_exp_hermitian`, a truncated Taylor series (Paterson & Stockmeyer,
SIAM J. Comput. 2, 60 (1973)) with scaling and squaring (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31, 970 (2009)) made of batched small products
only, in real arithmetic for real terms.  With dephasing, rho is conjugated
by each step's propagator, at two small products a step.  Without it the
steps between two samples compose exactly, so their propagators are first
multiplied into one on a pairwise tree (:func:`_segment_propagators`, one
product a step) and rho is conjugated once per sample interval; this moves
the results by rounding only, about 1e-14.  The step is CPTP, so it cannot
blow up, and its size is set by how fast H(t) changes rather than by its norm.

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

import bisect
import itertools
import math
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


def _record(out, rows, rho, left_c, form_right, obs, store_rho):
    """Write the (b, s, d, d) sampled states ``rho`` into ``rows`` of :func:`_lindblad_outputs`."""
    forms, expvals, purity, trace_defect, herm_defect, rho_samples = out
    b, s, d, _ = rho.shape
    # stacks of per-state products, so each member's numbers are those of its own run
    right = (rho @ form_right.T).swapaxes(-1, -2)  # rho r_f, as rows (b, s, F, d)
    forms[:, rows] = (left_c[:, None, :] @ right[..., None])[..., 0, 0]
    if obs.shape[0]:
        # tr(O rho) = vec(O^T) . vec(rho)
        obs_t = obs.swapaxes(1, 2).reshape(obs.shape[0], d * d)
        expvals[:, rows] = (rho.reshape(b, s, 1, d * d) @ obs_t.T)[..., 0, :].real
    flat = rho.reshape(b, s, 1, d * d).view(np.float64)
    purity[:, rows] = (flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    trace_defect[:, rows] = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    skew = (rho - rho.conj().swapaxes(-1, -2)).reshape(b, s, 1, d * d).view(np.float64)
    herm_defect[:, rows] = np.sqrt((skew @ skew.swapaxes(-1, -2))[..., 0, 0])
    if store_rho:
        rho_samples[:, rows] = rho


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
            _record(out, slice(ptr, ptr + 1), rho[:, None], left_c, form_right, obs, store_rho)
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
#: CF4 step propagators (64 steps of one member at d = 8; their exponentials
#: hold up to about twenty temporaries of that size), the fused propagators of
#: one member's segment of a run without dephasing (so such a segment is at
#: most 64 steps at d = 8, and one step from d = 64 up), and in
#: :mod:`lmg_adiabat.dynamics` the gap-scan Hamiltonians and the sampled
#: states whose eigenvalues are checked.  Larger gap-scan stacks saved
#: little time and raised the peak memory of a run.
STACK_BYTES = 1 << 16

#: Paterson-Stockmeyer layout of the exponential series in Y = X^2: blocks of
#: _WIDTH powers each, _BLOCKS of them, so the series stops at X^23.
_WIDTH, _BLOCKS = 3, 4
#: Largest h r summed without squaring: up to there the four blocks keep the
#: dropped tail below 2^-53, and a further block costs two real products where
#: a squaring costs a complex one, several times dearer.
_THETA_MAX = 2.0


def _series_tables():
    """Block thresholds and block coefficients of exp(-i X) = cos X - i X sin(X) / X.

    Truncated after k + 1 blocks the series keeps X^0 .. X^m, m = 2 _WIDTH (k+1) - 1,
    and its first dropped term is below 2^-54 when ||X|| <= thresholds[k].  Row
    (q, 0) of the coefficients holds the cos terms of block q and row (q, 1) the
    sin X / X terms, as coefficients of Y^(q _WIDTH) .. Y^(q _WIDTH + _WIDTH - 1).
    """
    degrees = 2 * _WIDTH * np.arange(1, _BLOCKS + 1) - 1
    thresholds = np.array([(math.factorial(m + 1) * 2.0 ** -54) ** (1.0 / (m + 1))
                           for m in degrees])
    coefficients = [[(-1) ** k / math.factorial(2 * k + odd)
                     for k in range(q * _WIDTH, (q + 1) * _WIDTH)]
                    for q in range(_BLOCKS) for odd in (0, 1)]
    return thresholds, np.array(coefficients)


_BLOCK_THETA, _SERIES = _series_tables()


def _exp_hermitian(s, h):
    """exp(-i h S) of every Hermitian matrix of an (n, d, d) stack, up to a phase each.

    Each S is shifted by the centre c of its Gershgorin interval [c - r, c + r]
    and scaled by h / 2^k, where k is the fewest squarings that bring
    h r / 2^k to at most _THETA_MAX.  The series of exp(-i X) for the scaled
    X = (S - c) h / 2^k is summed by Paterson-Stockmeyer as cos X - i X sin(X)/X,
    two polynomials in Y = X^2, so real S stay in real arithmetic, and the
    result is squared k times.  The shift multiplies U by the scalar phase
    exp(-i h c), which cancels in U rho U^H, so it is dropped.

    Each matrix takes its own number of blocks and squarings from its own
    bound: the blocks past its own degree are zeroed, so its bits do not
    depend on the rest of the stack.  A matrix that is not finite, or whose
    bound is not, gets a NaN propagator.
    """
    n, d, _ = s.shape
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():
        s = np.where(finite[:, None, None], s, 0.0)  # set to NaN at the end
    diag = np.diagonal(s, axis1=1, axis2=2).real.T
    radius = np.einsum("nij->in", np.abs(s)) - np.abs(diag)
    lo = (diag - radius).min(axis=0)
    hi = (diag + radius).max(axis=0)
    theta = h * (0.5 * (hi - lo))
    good = finite & np.isfinite(theta)
    if not good.all():
        # an overflowed bound: neither it nor a NaN may reach the squaring count
        theta[~good] = 0.0
        s = np.where(good[:, None, None], s, 0.0)
        lo[~good] = hi[~good] = 0.0
    mantissa, exponent = np.frexp(theta / _THETA_MAX)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    top = np.searchsorted(_BLOCK_THETA, np.ldexp(theta, -squarings))
    scale = np.ldexp(h, -squarings)

    x = s * scale[:, None, None]
    x.reshape(n, d * d)[:, ::d + 1] -= (scale * (0.5 * (hi + lo)))[:, None]
    powers = np.empty((_WIDTH, n, d, d), dtype=s.dtype)  # I, Y, Y^2
    powers[0] = np.eye(d)
    np.matmul(x, x, out=powers[1])
    for j in range(2, _WIDTH):
        np.matmul(powers[1], powers[j - 1], out=powers[j])
    y_width = powers[1] @ powers[_WIDTH - 1]
    # every block's cos and sin parts from one real product (complex Y: its float64 view)
    blocks = (_SERIES @ powers.reshape(_WIDTH, -1).view(np.float64)).view(s.dtype)
    blocks = blocks.reshape(_BLOCKS, 2, n, d, d)

    last = int(top.max(initial=0))
    parts = blocks[last].copy()  # cos and sin(X)/X, by Horner's rule in Y^_WIDTH
    for q in range(last, -1, -1):
        if q < last:
            parts = y_width @ parts
            parts += blocks[q]
        below = top < q
        if below.any():
            parts[:, below] = 0.0  # the matrix's series starts at a lower block
    sin_part = x @ parts[1]  # X sin(X) / X
    if s.dtype == np.float64:
        u = np.empty((n, d, d), dtype=np.complex128)
        u.real = parts[0]
        np.negative(sin_part, out=u.imag)
    else:
        u = parts[0] - 1j * sin_part
    for k in range(int(squarings.max(initial=0))):
        more = np.nonzero(squarings > k)[0]
        u[more] = u[more] @ u[more]
    if not good.all():
        u[~good] = np.nan
    return u


def _cf4_propagators(rows, stage_terms, stage_dtype, dt, d):
    """(n, B, d, d) stack of step propagators U from half-step coefficient rows (2n+1, B, K).

    Each step's Simpson moments S_a = (3 H_0 + 4 H_1/2 - H_1) / 12 and
    S_b = (-H_0 + 4 H_1/2 + 3 H_1) / 12 give U = exp(-i dt S_b) exp(-i dt S_a),
    each exponential from :func:`_exp_hermitian`, up to a phase that cancels
    in U rho U^H.  A step whose Hamiltonian is not finite gets a NaN
    propagator, which the trace check reports.
    """
    c0, cm, c1 = rows[:-1:2], rows[1::2], rows[2::2]
    n, b, kk = c0.shape
    moments = np.stack([3.0 * c0 + 4.0 * cm - c1, 4.0 * cm + 3.0 * c1 - c0], axis=1) / 12.0
    # a stack of fixed-shape products: each step's bits do not depend on n
    s = (moments.reshape(n, 2 * b, kk) @ stage_terms).view(stage_dtype)
    ua, ub = _exp_hermitian(s.reshape(n * 2 * b, d, d), dt).reshape(n, 2, b, d, d).swapaxes(0, 1)
    return ub @ ua  # S_a acts first


def _segment_ends(n_steps, sample_idx, longest):
    """Ends of the fused segments of a run without dephasing.

    A segment runs from one sample step (or step 0) to the next one (or
    ``n_steps``) and is cut every ``longest`` steps from its start, so the
    segments depend on the sample grid and ``longest`` only.
    """
    ends, start = [], 0
    for cut in np.union1d(sample_idx, [n_steps]).tolist():
        if cut > start:
            ends += range(start + longest, cut, longest)
            ends.append(cut)
            start = cut
    return ends


def _segment_propagators(u, lengths):
    """Products U_(L-1) ... U_0 of consecutive runs of an (n, B, d, d) propagator stack.

    The runs have ``lengths`` steps and are multiplied on a pairwise tree, in
    place on ``u``, one small product per factor.  At each level a run's
    nodes sit at ``stride * i``: node 2i + 1 times node 2i (the later factor
    on the left) replaces node 2i, and an odd run's last node is carried up
    where it is.  Each run's product ends at its start, in an order set by
    the run's length alone, so a member's bits depend only on its own
    factors.  Consecutive runs of one length take each level in one product
    of strided views.
    """
    products, start = [], 0
    for length, group in itertools.groupby(lengths):
        runs = len(list(group))
        tree = u[start:start + runs * length].reshape(runs, length, *u.shape[1:])
        stride = 1
        while stride < length:
            pair = 2 * stride
            stop = pair * (-(-length // stride) // 2)  # after the last pair
            tree[:, :stop:pair] = tree[:, stride:stop:pair] @ tree[:, :stop:pair]
            stride = pair
        products.append(tree[:, 0])
        start += runs * length
    return products[0] if len(products) == 1 else np.concatenate(products)


def _lindblad_cf4_numpy(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, obs, store_rho):
    """Commutator-free 4th-order Magnus step with exact dephasing half-steps.

    Same arguments and outputs as :func:`_lindblad_rk4_numpy`.  One loop
    advances rho over segments: rho <- E o (V (E o rho) V^H), then Hermitized,
    with E = exp(W dt / 2) and V the product of the segment's step
    propagators from :func:`_cf4_propagators`; every factor is a CPTP map,
    so the step keeps the trace and positivity at any step size.  With
    dephasing a segment is one step.  Without it (W = 0) the steps between
    two samples compose exactly, so a segment is a sample interval
    (:func:`_segment_ends`), multiplied out by :func:`_segment_propagators`.
    The propagators are built in stacks of ``STACK_BYTES``; the segments that
    end in a stack are applied, and their samples recorded, together, and a
    segment's unfinished steps wait for the next stack.
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
    if np.any(w):
        ends = list(range(1, n_steps + 1))
    else:
        ends = _segment_ends(n_steps, sample_idx, max(1, STACK_BYTES // (16 * d * d)))
    sampled = np.zeros(n_steps + 1, dtype=bool)
    sampled[sample_idx] = True

    rho = 0.5 * (rho0 + rho0.conj().transpose(0, 2, 1))
    ptr = 0
    if sampled[0]:
        _record(out, slice(0, 1), rho[:, None], left_c, form_right, obs, store_rho)
        ptr = 1
    pending = []  # propagator stacks of the steps of an unfinished segment
    first = 0
    for lo in range(0, n_steps, per_chunk):
        hi = min(lo + per_chunk, n_steps)
        u = _cf4_propagators(ctab[2 * lo:2 * hi + 1], stage_terms, stage_dtype, dt, d)
        last = bisect.bisect_right(ends, hi, first)
        if last == first:  # no segment ends in this stack
            pending.append(u)
            continue
        if pending:
            u = np.concatenate(pending + [u])
        start = hi - u.shape[0]
        done = ends[first:last]  # the segments that end in this stack
        v = _segment_propagators(u[:done[-1] - start], np.diff([start] + done).tolist())
        vh = np.ascontiguousarray(v.conj().swapaxes(-1, -2))
        states = []
        for j, end in enumerate(done):
            y = v[j] @ (half_damp * rho) @ vh[j]
            rho = y + y.conj().transpose(0, 2, 1)
            rho *= scale
            if sampled[end]:
                states.append(rho)
        if states:
            rows = slice(ptr, ptr + len(states))
            _record(out, rows, np.stack(states, axis=1), left_c, form_right, obs, store_rho)
            ptr += len(states)
        pending = [u[done[-1] - start:]] if hi > done[-1] else []
        first = last

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
