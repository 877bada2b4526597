"""Master-equation integration with per-spin dephasing and gap monitoring.

The density-matrix ODE

    drho/dt = -i [H(t), rho] + sum_j gamma_j (sigma_z^j rho sigma_z^j - rho)

is integrated with a fixed step, chosen over adaptive schemes for
determinism.  Since sigma_z^j is diagonal, the whole dissipator reduces to an
elementwise mask W ∘ rho with W = sum_j gamma_j (s_j s_j^T - 1), whose flow
is the elementwise factor exp(W t).  Each step is a Strang splitting of that
exact dephasing around a 4th-order commutator-free Magnus propagator of H(t)
(two exponentials of Simpson moments of H over the step, see
:func:`lmg_adiabat._kernels._lindblad_cf4_numpy`):

    rho <- E ∘ (U (E ∘ rho) U†),    E = exp(W h / 2).

Every factor is a CPTP map, so the trace and positivity hold at any step.
Without dephasing E = 1, and the kernel multiplies the propagators of the
steps between two samples into one before it conjugates rho; the state is
Hermitized after each such sample interval, or after each step when there
is dephasing.  Fusing the steps moves a run's results by rounding only,
about 1e-14, since the same factors are multiplied in another order.

The step is limited by how fast H(t) changes, not by its norm (see
DEFAULT_STEP).  Since the step is CPTP, the trace check does not flag a step
that is too large: such a step returns a valid but less accurate state.  The
classical RK4 kernel remains as the reference the step is tested against.
Runs that share the time grid and the dephasing rates are integrated
together as one batch (:func:`evolve_batch`); a single run is the batch of
one.

A batch is integrated only on the basis states its initial states can reach
through the nonzero pattern of its terms.  Every LMG term, the coupling
disorder and the sigma_z dephasing conserve the spin-flip parity
prod_j sigma_z^j, and every preset starts in a state of definite parity, so
the kernel runs at dimension 2^(N-1) instead of 2^N.  A batch whose initial
states mix the parity blocks falls back to the full space.  The sampled and
final states are embedded back into the full space, where they are exactly
0 outside the block.  The gap scan always diagonalizes the full H(t): the
ferromagnetic ground doublet has one member in each block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, StepFailureError
from .model import DisorderProfile, LinearHamiltonian, lmg_sweep_hamiltonian
from .states import check_density_matrix

#: Default master-equation step (1/nu).  The spread of H(t) is about
#: 0.65 N nu, so at N = 10 the step times the spread is 6.5, just above 2 pi.
#: Measured against a step of 0.25 up to N = 10, the populations of the
#: preset runs err by at most 2e-9 at 1/nu, where RK4 at 0.25/nu errs by up to 9e-5; at 2/nu the
#: step errs by up to 1e-4 (case III at N = 8 and 10).
DEFAULT_STEP = 1.0
#: Steps per kernel call.  The coefficient table is built one block at a
#: time, which bounds its memory, and the sampled trace is checked after
#: every block, which stops a blown-up run early.
BLOCK_STEPS = 500
#: Most steps a run may take: up to 2^53 the step count and the sample steps
#: are exact integers both in float64 and in int64.
MAX_STEPS = 2**53


@dataclass(frozen=True)
class DriveSchedule:
    """Hyperbolic-tangent drive envelopes.

    Omega_k(t) = (zeta + dzeta_k) * (1 + tanh((t - t0_k) / ramp_k)); the
    dzeta offsets model drive dispersion, the t0 offsets shift the ramp
    centers.  Defaults give the reference envelopes (base amplitude
    0.3 nu, ramps 2000 and 1500 in 1/nu, centered at t = 0).  An infinite
    ramp holds its envelope at zeta + dzeta_k.
    """

    zeta: float = 0.3
    ramp1: float = 2000.0
    ramp2: float = 1500.0
    t0_1: float = 0.0
    t0_2: float = 0.0
    dzeta1: float = 0.0
    dzeta2: float = 0.0

    def __post_init__(self) -> None:
        bad = {name: value for name, value in vars(self).items()
               if not (math.isfinite(value) or name.startswith("ramp") and value == math.inf)}
        if bad:
            raise ValueError(f"schedule fields must be finite (a ramp may be +inf), got {bad}")
        if self.ramp1 <= 0 or self.ramp2 <= 0:
            raise ValueError("ramp time scales must be positive")

    def omega1(self, t):
        return (self.zeta + self.dzeta1) * (1.0 + np.tanh((np.asarray(t, dtype=np.float64) - self.t0_1) / self.ramp1))

    def omega2(self, t):
        return (self.zeta + self.dzeta2) * (1.0 + np.tanh((np.asarray(t, dtype=np.float64) - self.t0_2) / self.ramp2))

    def with_dispersion(self, dzeta1: float, dzeta2: float) -> "DriveSchedule":
        """Schedule with additional dispersion offsets stacked on the current ones.

        Unequal offsets leave beta1(t_final) = 2(dzeta1 - dzeta2) once both
        drives have saturated, so the final Hamiltonian is no longer one-axis
        and its ground state, not the target state, bounds what an adiabatic
        sweep can reach.
        """
        return replace(self, dzeta1=self.dzeta1 + dzeta1, dzeta2=self.dzeta2 + dzeta2)


def literal_schedule(zeta: float = 0.3) -> DriveSchedule:
    """The unshifted reference envelopes (both ramps centered at t = 0).

    Note these give Omega1(0) = Omega2(0) = zeta, so a run started at t = 0
    does not begin in the single-drive regime; see :func:`calibrated_schedule`.
    """
    return DriveSchedule(zeta=zeta)


def calibrated_schedule(
    zeta: float = 0.3,
    t_final: float = 4000.0,
    ramp2: float = 500.0,
    pre_hold: float = 12000.0,
) -> DriveSchedule:
    """Schedule realizing the stated initial condition Omega2(0) ≈ 0.

    Omega1 is effectively held at its final value 2*zeta (its ramp center is
    pushed to t = -pre_hold), while Omega2 sweeps from ~0 to 2*zeta around
    the window midpoint.  Dispersion offsets still scale both envelopes the
    same way as in the unshifted form.
    """
    return DriveSchedule(
        zeta=zeta,
        ramp1=2000.0,
        ramp2=ramp2,
        t0_1=-pre_hold,
        t0_2=t_final / 2.0,
    )


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian plus per-spin dephasing rates (nu units).

    ``hamiltonian`` is a :class:`LinearHamiltonian` or a constant square
    matrix, which is stored as a one-term LinearHamiltonian; anything else
    raises :class:`TypeError`.
    """

    hamiltonian: Union[LinearHamiltonian, np.ndarray]
    gammas: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        ham = self.hamiltonian
        if isinstance(ham, np.ndarray):
            const = np.ascontiguousarray(ham, dtype=np.complex128)
            if const.ndim != 2 or const.shape[0] != const.shape[1]:
                raise DimensionMismatchError(f"hamiltonian shape {const.shape} is not square")
            ham = LinearHamiltonian(
                terms=const[None, :, :],
                coefficients=lambda ts: np.ones((np.size(ts), 1)),
            )
        elif not isinstance(ham, LinearHamiltonian):
            raise TypeError(
                f"hamiltonian must be a LinearHamiltonian or a constant matrix, "
                f"got {type(ham).__name__}"
            )
        object.__setattr__(self, "hamiltonian", ham)
        gammas = tuple(float(g) for g in self.gammas)
        if any(g < 0 for g in gammas):
            raise ValueError(f"dephasing rates must be >= 0, got {gammas}")
        object.__setattr__(self, "gammas", gammas)


def dephasing_mask(gammas: Sequence[float], dim: Optional[int] = None) -> np.ndarray:
    """Elementwise dissipator mask W with (W ∘ rho) = sum_j gamma_j D[sigma_z^j] rho."""
    gammas = tuple(float(g) for g in gammas)
    n = len(gammas)
    if dim is None:
        dim = 2**n
    if any(g > 0 for g in gammas) and dim != 2**n:
        raise DimensionMismatchError(
            f"{n} dephasing rates address a space of dim {2**n}, got dim {dim}"
        )
    w = np.zeros((dim, dim), dtype=np.float64)
    if n and dim == 2**n:
        idx = np.arange(dim)
        for j, g in enumerate(gammas, start=1):
            s = 1.0 - 2.0 * ((idx >> (n - j)) & 1)
            w += g * (np.outer(s, s) - 1.0)
    return w


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, gammas: Sequence[float]) -> np.ndarray:
    """Right-hand side -i[H, rho] + sum_j gamma_j (sigma_z^j rho sigma_z^j - rho)."""
    rho = np.asarray(rho, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if rho.shape != h.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"shape mismatch: rho {rho.shape}, h {h.shape}")
    w = dephasing_mask(gammas, dim=rho.shape[0])
    return -1j * (h @ rho - rho @ h) + w * rho


@dataclass
class TrajectoryResult:
    """Sampled observables of one master-equation run (times in 1/nu)."""

    times: np.ndarray
    populations: Dict[str, np.ndarray]
    bilinears: Dict[str, np.ndarray]
    expectations: Dict[str, np.ndarray]
    purity: np.ndarray
    trace_defect: np.ndarray
    hermiticity_defect: np.ndarray
    gap: Optional[np.ndarray]
    rho_samples: Optional[np.ndarray]
    rho_final: np.ndarray
    step: float
    n_steps: int
    #: How far the largest unclipped tracked population went outside [0, 1]
    #: (0 when every sample stayed inside); ``populations`` are clipped.
    population_excursion: float
    #: Size of the block of basis states the run was integrated on; outside
    #: it every sampled state is exactly 0.
    integrated_dim: int
    #: Smallest eigenvalue of the sampled states (None when they are not stored).
    min_eigenvalue: Optional[float]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def diagnostics(self) -> Dict[str, Optional[float]]:
        """How close the run came to its numerical limits, and the dimension it ran at."""
        return {
            "n_steps": self.n_steps,
            "integrated_dim": self.integrated_dim,
            "max_trace_defect": float(np.max(self.trace_defect)),
            "max_hermiticity_defect": float(np.max(self.hermiticity_defect)),
            "population_excursion": self.population_excursion,
            "min_eigenvalue": self.min_eigenvalue,
        }


def _sample_grid(t_span: Tuple[float, float], step: float, n_samples: int):
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    steps = (t1 - t0) / step
    if not steps <= MAX_STEPS:  # also catches a NaN or infinite count
        raise ValueError(f"t_span over step is {steps:.6g} steps, not an exact int64 "
                         f"step count (at most 2**53)")
    n_samples = max(2, int(n_samples))
    # at least one step per sample interval, so a short window keeps its rows
    n_steps = max(n_samples - 1, math.ceil(steps - 1e-12))
    h = (t1 - t0) / n_steps
    idx = np.unique(np.round(np.linspace(0, n_steps, n_samples)).astype(np.int64))
    return t0, h, n_steps, idx


def sample_times(t_span: Tuple[float, float], step: float, n_samples: int) -> np.ndarray:
    """The times at which a fixed-step run over ``t_span`` is sampled."""
    t0, h, _, sample_idx = _sample_grid(t_span, step, n_samples)
    return t0 + h * sample_idx.astype(np.float64)


def _hamiltonian_matrix(hamiltonian: LinearHamiltonian, times: np.ndarray) -> np.ndarray:
    """(T, d, d) stack of H(t) at the given times."""
    return np.einsum("tk,kij->tij", hamiltonian.coefficient_table(times), hamiltonian.terms)


def spectral_gap(h: np.ndarray,
                 degeneracy_tol: Optional[float] = None) -> Union[float, np.ndarray]:
    """Gap from the (possibly quasi-degenerate) ground band to the next level.

    With ``degeneracy_tol=None`` the band tolerance is 1e-3 of the spectral
    spread, which absorbs the exponentially split ferromagnetic ground doublet
    near the one-axis end of a sweep.  A (..., d, d) stack gives an array of
    gaps with the band rule applied to each matrix; a single matrix gives a
    float.
    """
    vals = np.linalg.eigvalsh(h)
    ground = vals[..., 0]
    tol = 1e-3 * (vals[..., -1] - ground) if degeneracy_tol is None else degeneracy_tol
    k = np.sum(vals <= (ground + tol)[..., None], axis=-1)
    above = np.take_along_axis(vals, np.minimum(k, vals.shape[-1] - 1)[..., None], axis=-1)
    gap = np.where(k < vals.shape[-1], above[..., 0] - ground, 0.0)
    return float(gap) if gap.ndim == 0 else gap


def _gap_scan(hamiltonian: LinearHamiltonian, times: np.ndarray,
              degeneracy_tol: Optional[float]) -> np.ndarray:
    """Spectral gap at each time, diagonalizing H(t) in stacks of bounded size."""
    per_call = max(1, _kernels.STACK_BYTES // (16 * hamiltonian.dim**2))
    return np.concatenate([
        spectral_gap(_hamiltonian_matrix(hamiltonian, times[i:i + per_call]), degeneracy_tol)
        for i in range(0, times.size, per_call)
    ])


def evolve(
    spec: LindbladSpec,
    rho0: np.ndarray,
    t_span: Tuple[float, float],
    *,
    n_samples: int = 401,
    step: float = DEFAULT_STEP,
    populations: Optional[Mapping[str, np.ndarray]] = None,
    bilinears: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
    observables: Optional[Mapping[str, np.ndarray]] = None,
    record_gap: bool = True,
    gap_degeneracy_tol: Optional[float] = None,
    store_states: Optional[bool] = None,
    trace_tol: float = 1e-8,
) -> TrajectoryResult:
    """Integrate the master equation over ``t_span`` and sample observables.

    The batch of one of :func:`evolve_batch`, which documents the options.
    """
    return evolve_batch(
        [spec], [rho0], t_span, n_samples=n_samples, step=step, populations=populations,
        bilinears=bilinears, observables=observables, record_gap=record_gap,
        gap_degeneracy_tol=gap_degeneracy_tol, store_states=store_states,
        trace_tol=trace_tol,
    )[0]


def evolve_batch(
    specs: Sequence[LindbladSpec],
    rho0s: Sequence[np.ndarray],
    t_span: Tuple[float, float],
    *,
    n_samples: int = 401,
    step: float = DEFAULT_STEP,
    populations: Optional[Mapping[str, np.ndarray]] = None,
    bilinears: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
    observables: Optional[Mapping[str, np.ndarray]] = None,
    record_gap: bool = True,
    gap_degeneracy_tol: Optional[float] = None,
    store_states: Optional[bool] = None,
    trace_tol: float = 1e-8,
) -> List[TrajectoryResult]:
    """Integrate several master equations together, one result per member.

    The members share the time grid, the dephasing rates and the tracked
    quantities, and are integrated in one loop over a stack of density
    matrices.  The step count is the larger of ``n_samples - 1`` and the
    window over ``step``, so a short window keeps every requested sample.
    ``populations`` maps names to state vectors tracked as <psi|rho|psi>;
    ``bilinears`` maps names to vector pairs tracked as <a|rho|b> (used for
    phase-optimized populations); ``observables`` maps names to Hermitian
    matrices tracked as Tr(O rho).  ``store_states``
    (default: d <= 64) keeps the sampled states, and only then is their
    smallest eigenvalue computed (``min_eigenvalue``).  Raises
    :class:`StepFailureError` when a member's sampled trace defect exceeds
    ``trace_tol``, at the end of the block of ``BLOCK_STEPS`` steps in which
    that happens.
    """
    specs = list(specs)
    if not specs or len(specs) != len(rho0s):
        raise ValueError(f"need one initial state per member, got {len(specs)} specs "
                         f"and {len(rho0s)} states")
    rho0s = [np.ascontiguousarray(r, dtype=np.complex128) for r in rho0s]
    for rho0 in rho0s:
        check_density_matrix(rho0)
    dim = rho0s[0].shape[0]
    if any(r.shape[0] != dim for r in rho0s):
        raise DimensionMismatchError("batched members must share the state dimension")
    gammas = specs[0].gammas
    if any(spec.gammas != gammas for spec in specs):
        raise ValueError("batched members must share their dephasing rates")
    w = dephasing_mask(gammas, dim=dim)

    t0, h, n_steps, sample_idx = _sample_grid(t_span, step, n_samples)
    times = t0 + h * sample_idx.astype(np.float64)

    populations = dict(populations or {})
    bilinears = dict(bilinears or {})
    observables = dict(observables or {})
    form_pairs = [(v, v) for v in populations.values()]
    form_pairs += [(a, b) for a, b in bilinears.values()]
    if form_pairs:
        form_left = np.ascontiguousarray([p[0] for p in form_pairs], dtype=np.complex128)
        form_right = np.ascontiguousarray([p[1] for p in form_pairs], dtype=np.complex128)
    else:
        form_left = np.zeros((0, dim), dtype=np.complex128)
        form_right = np.zeros((0, dim), dtype=np.complex128)
    if observables:
        obs = np.ascontiguousarray(list(observables.values()), dtype=np.complex128)
    else:
        obs = np.zeros((0, dim, dim), dtype=np.complex128)
    for name, (fl, fr) in zip(list(populations) + list(bilinears), form_pairs):
        if np.shape(fl) != (dim,) or np.shape(fr) != (dim,):
            raise DimensionMismatchError(f"registered state {name!r} does not match dim {dim}")
    for name, o in observables.items():
        if np.shape(o) != (dim, dim):
            raise DimensionMismatchError(f"observable {name!r} does not match dim {dim}")

    if store_states is None:
        store_states = dim <= 64
    hams = [spec.hamiltonian for spec in specs]
    for ham in hams:
        if ham.dim != dim:
            raise DimensionMismatchError(
                f"hamiltonian dim {ham.dim} does not match density matrix dim {dim}"
            )
    forms, expvals, pur, tdef, hdef, rho_samples, rho_final, keep = _integrate_blocks(
        hams, w, np.stack(rho0s), t0, h, n_steps, sample_idx,
        form_left, form_right, obs, bool(store_states), trace_tol,
    )

    results = []
    for b, spec in enumerate(specs):
        unclipped = forms[b, :, :len(populations)].real
        pop_out = {
            name: np.clip(unclipped[:, k], 0.0, 1.0) for k, name in enumerate(populations)
        }
        bil_out = {
            name: forms[b, :, len(populations) + k] for k, name in enumerate(bilinears)
        }
        exp_out = {name: expvals[b, :, k] for k, name in enumerate(observables)}
        gap = _gap_scan(spec.hamiltonian, times, gap_degeneracy_tol) if record_gap else None
        results.append(TrajectoryResult(
            times=times,
            populations=pop_out,
            bilinears=bil_out,
            expectations=exp_out,
            purity=pur[b],
            trace_defect=tdef[b],
            hermiticity_defect=hdef[b],
            gap=gap,
            rho_samples=rho_samples[b] if store_states else None,
            rho_final=rho_final[b],
            step=h,
            n_steps=n_steps,
            population_excursion=float(np.max(np.maximum(-unclipped, unclipped - 1.0),
                                              initial=0.0)),
            integrated_dim=int(keep.size),
            min_eigenvalue=_min_eigenvalue(rho_samples[b], keep) if store_states else None,
        ))
    return results


def _term_union(hams: Sequence[LinearHamiltonian]):
    """Stack the distinct terms of several Hamiltonians.

    Returns the (K, d, d) stack and, per member, the stack index of each of
    its own terms; bitwise-equal matrices share one index.
    """
    index: Dict[bytes, int] = {}
    union = []
    columns = []
    for ham in hams:
        cols = []
        for term in np.ascontiguousarray(ham.terms, dtype=np.complex128):
            key = term.tobytes()
            if key not in index:
                index[key] = len(union)
                union.append(term)
            cols.append(index[key])
        columns.append(cols)
    return np.ascontiguousarray(np.stack(union)), columns


def _reachable_indices(terms: np.ndarray, rho0s: np.ndarray) -> np.ndarray:
    """Sorted basis indices that the dynamics can reach from the initial states.

    Starts from the rows and columns where any initial state is nonzero and
    closes that set under the nonzero pattern of every term.  The dephasing
    mask acts elementwise and couples nothing.  Every LMG term, the disorder
    term and sigma_z dephasing conserve the spin-flip parity prod_j sigma_z^j,
    so from a state of definite parity this is that parity's 2^(N-1) block.
    """
    coupled = np.any(terms != 0, axis=0)
    coupled |= coupled.T
    occupied = rho0s != 0
    reach = np.any(occupied, axis=(0, 1)) | np.any(occupied, axis=(0, 2))
    while True:
        grown = reach | np.any(coupled[:, reach], axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _restrict(keep, terms, w, rho, form_left, form_right, obs):
    """Kernel inputs on the block ``keep``: P X P for the matrices, P a for the vectors."""
    inside = (Ellipsis, keep[:, None], keep)
    return (*(np.ascontiguousarray(x[inside]) for x in (terms, w, rho)),
            *(np.ascontiguousarray(f[:, keep]) for f in (form_left, form_right)),
            np.ascontiguousarray(obs[inside]))


def _min_eigenvalue(states: np.ndarray, keep: np.ndarray) -> float:
    """Smallest eigenvalue of an (m, d, d) stack of states, taken inside the block ``keep``.

    Outside the block the states are 0, so their eigenvalues there are
    exactly 0 and would hide the ones inside.  The stack is diagonalized in
    pieces of at most ``_kernels.STACK_BYTES``.
    """
    per_call = max(1, _kernels.STACK_BYTES // (16 * keep.size**2))
    return float(min(np.linalg.eigvalsh(states[i:i + per_call, keep[:, None], keep])[:, 0].min()
                     for i in range(0, len(states), per_call)))


def _integrate_blocks(hams, w, rho, t0, h, n_steps, sample_idx,
                      form_left, form_right, obs, store_rho, trace_tol):
    """Kernel loop over blocks of BLOCK_STEPS steps, carrying rho across them.

    The kernel runs on the block of basis states that the initial states can
    reach (:func:`_reachable_indices`); the sampled states and the final
    state come back embedded in the full space.  Also returns that block.
    """
    terms, columns = _term_union(hams)
    kern = _kernels.get_kernels()
    b, m, d = len(hams), sample_idx.size, rho.shape[1]
    keep = _reachable_indices(terms, rho)
    inside = (Ellipsis,)
    if keep.size < d:
        inside = (Ellipsis, keep[:, None], keep)
        terms, w, rho, form_left, form_right, obs = _restrict(
            keep, terms, w, rho, form_left, form_right, obs)
    samples = (
        np.empty((b, m, form_left.shape[0]), dtype=np.complex128),  # forms
        np.empty((b, m, obs.shape[0])),  # expectation values
        np.empty((b, m)),  # purity
        np.empty((b, m)),  # trace defect
        np.empty((b, m)),  # Hermiticity defect
        np.zeros((b, m if store_rho else 0, d, d), dtype=np.complex128),
    )
    for s0 in range(0, n_steps, BLOCK_STEPS):
        s1 = min(s0 + BLOCK_STEPS, n_steps)
        # global half-step index, so every row matches a whole-window table
        half_times = t0 + (h / 2.0) * np.arange(2 * s0, 2 * s1 + 1, dtype=np.float64)
        ctab = np.zeros((half_times.size, b, terms.shape[0]))
        for i, (ham, cols) in enumerate(zip(hams, columns)):
            table = ham.coefficient_table(half_times)
            for k, col in enumerate(cols):
                ctab[:, i, col] += table[:, k]
        # a block records the samples in (s0, s1]; the first also records step 0
        lo = np.searchsorted(sample_idx, s0 + 1 if s0 else 0)
        hi = np.searchsorted(sample_idx, s1, side="right")
        *block, rho = kern.lindblad_cf4(terms, ctab, w, rho, h, sample_idx[lo:hi] - s0,
                                        form_left, form_right, obs, store_rho)
        for full, part in zip(samples[:-1], block):
            full[:, lo:hi] = part
        samples[-1][:, lo:hi][inside] = block[-1]
        _check_trace(block[3], t0 + h * sample_idx[lo:hi].astype(np.float64), trace_tol, h)
    if keep.size < d:
        rho_full = np.zeros((b, d, d), dtype=np.complex128)
        rho_full[inside] = rho
        rho = rho_full
    return (*samples, rho, keep)


def _check_trace(tdef: np.ndarray, times: np.ndarray, trace_tol: float, h: float) -> None:
    """Raise StepFailureError at the first sample whose trace defect is too large."""
    bad = ~(tdef <= trace_tol)  # also catches NaN from a blown-up run
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        b = int(np.argmax(bad[:, j]))
        who = f"member {b}: " if tdef.shape[0] > 1 else ""
        raise StepFailureError(
            f"{who}trace defect {tdef[b, j]:.3e} at t = {times[j]:.6g} exceeds "
            f"{trace_tol:.1e}; check that H(t) stays finite (step {h:.3g}/nu)"
        )


def evolve_state(
    hamiltonian: LinearHamiltonian,
    psi0: np.ndarray,
    t_span: Tuple[float, float],
    *,
    n_samples: int = 401,
    step: float = 0.25,
):
    """Schrödinger evolution of a pure state under a LinearHamiltonian.

    Integrated with classical RK4, whose stability bound sets the default
    step.  Returns (times, psi_samples, psi_final); norm drift is the
    caller's convergence indicator.
    """
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    if psi0.ndim != 1 or psi0.size != hamiltonian.dim:
        raise DimensionMismatchError(
            f"state of dim {psi0.size} does not match hamiltonian dim {hamiltonian.dim}"
        )
    t0, h, n_steps, sample_idx = _sample_grid(t_span, step, n_samples)
    times = t0 + h * sample_idx.astype(np.float64)
    half_times = t0 + (h / 2.0) * np.arange(2 * n_steps + 1, dtype=np.float64)
    ctab = np.ascontiguousarray(hamiltonian.coefficient_table(half_times))
    kern = _kernels.get_kernels()
    psi_samples, psi_final = kern.schrodinger_rk4(
        np.ascontiguousarray(hamiltonian.terms), ctab, psi0, h, sample_idx
    )
    return times, psi_samples, psi_final


def rotating_frame_states(h0: np.ndarray, frame: np.ndarray, psi0: np.ndarray,
                          times: np.ndarray) -> np.ndarray:
    """Exact pure states under H(t) = e^{iKt} h0 e^{-iKt}, K = diag(frame).

    In the frame rotating with K the Hamiltonian is the constant G = h0 + K,
    so psi(t) = e^{iKt} V e^{-i Lambda t} V† psi0 with G = V Lambda V†, from
    one eigendecomposition and with no time step; a zero frame gives the
    evolution under a constant h0.  Returns the (T, d) states at ``times``
    (measured from t = 0).
    """
    frame = np.asarray(frame, dtype=np.float64)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if h0.shape != (frame.size, frame.size) or psi0.shape != (frame.size,):
        raise DimensionMismatchError(
            f"hamiltonian {h0.shape}, frame {frame.shape} and state {psi0.shape} do not match"
        )
    times = np.asarray(times, dtype=np.float64)
    lam, v = np.linalg.eigh(h0 + np.diag(frame))
    coeffs = np.exp(-1.0j * np.multiply.outer(times, lam)) * (v.conj().T @ psi0)
    return np.exp(1.0j * np.multiply.outer(times, frame)) * (coeffs @ v.T)


@dataclass
class AdiabaticityProfile:
    """Instantaneous gap along a drive sweep plus the global adiabaticity margin."""

    times: np.ndarray
    gaps: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    min_gap: float
    margin: float  # sweep duration times min gap; >> 1 for an adiabatic sweep

    def rows(self):
        return list(zip(self.times, self.gaps, self.omega1, self.omega2))


def adiabaticity_profile(
    schedule: DriveSchedule,
    eta: float,
    delta: float,
    n_spins: int,
    times: np.ndarray,
    disorder: Optional[DisorderProfile] = None,
    degeneracy_tol: Optional[float] = None,
) -> AdiabaticityProfile:
    """Scan the instantaneous spectral gap of the swept collective Hamiltonian."""
    from .operators import SpinRegister

    times = np.asarray(times, dtype=np.float64)
    ham = lmg_sweep_hamiltonian(
        SpinRegister(n_spins), eta, delta, schedule.omega1, schedule.omega2, disorder
    )
    gaps = _gap_scan(ham, times, degeneracy_tol)
    min_gap = float(np.min(gaps))
    duration = float(times[-1] - times[0]) if times.size > 1 else 0.0
    return AdiabaticityProfile(
        times=times,
        gaps=gaps,
        omega1=np.asarray(schedule.omega1(times), dtype=np.float64),
        omega2=np.asarray(schedule.omega2(times), dtype=np.float64),
        min_gap=min_gap,
        margin=duration * min_gap,
    )
