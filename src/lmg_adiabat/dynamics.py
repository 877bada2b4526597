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
steps between two samples into one, V_j.  It takes these in groups and
carries each group's starting state to all of the group's samples at once
through the prefix products V_j ... V_0, which a log-depth scan forms; each
sampled state is Hermitized.  On an operator subspace (below) the whole
step, dephasing included, is a real matrix, and the steps of a sample
interval are fused and scanned in the same way.  Fusing the steps moves a
run's results by rounding only, about 1e-14, since the same factors are
multiplied in another order.  Other dephased runs advance rho one step at
a time and Hermitize it after each step.

The step is limited by how fast H(t) changes, not by its norm (see
DEFAULT_STEP).  Since the step is CPTP, the trace check does not flag a step
that is too large: such a step returns a valid but less accurate state.  The
classical RK4 kernel remains as the reference the step is tested against.
Runs that share the time grid and the dephasing rates are integrated
together as one batch (:func:`evolve_batch`); a single run is the batch of
one.  The kernel is called once for as many whole blocks of
``_kernels.BLOCK_STEPS`` steps as fit a coefficient table of ``TABLE_BYTES``
(the whole window of a single preset run); a call cut at a block start gives
the bits of the uncut call, so a member's bits do not depend on its batch.

:func:`_integration_plans` splits a batch into groups, each with one plan
(:class:`_Plan`): the span of the orthonormal columns of a d x k matrix Q.
The kernel gets Q^H X Q for the terms, the initial states and the
dephasing mask, and the sampled and final states are embedded back into the
full space as Q X Q^H when they are first read.  A batch without dephasing
is integrated on the smallest subspace that holds every member's initial
state and that every term of the batch maps into itself
(:func:`_invariant_subspace`).  The LMG terms move a Dicke state only
along its collective spin, and the disorder term is 0 on the m = 0 Dicke
state and a scalar on m = +-N/2, so case I at N = 4 runs at dimension 3
instead of 16, with or without disorder.  A batch runs on the closure of
the union of its members, so a member can differ from its standalone run by
rounding.  The dephasing mask acts elementwise and needs a coordinate basis,
so a dephased batch, or one whose closure is no smaller, is integrated on
the basis states its initial states can reach through the nonzero pattern
of its terms: Q selects those columns of the identity, and Q^H X Q picks the
entries of that block exactly.  Every LMG term, the coupling disorder and
the sigma_z dephasing conserve the spin-flip parity prod_j sigma_z^j, and
every preset starts in a state of definite parity, so that block has
dimension 2^(N-1); a batch whose initial states mix the parity blocks
selects the full space.  The embedded states are 0 outside the integrated
basis (exactly for a selection, up to rounding for a subspace).

On that block a dephased run with real terms and states is integrated on
the smallest space of Hermitian operators that holds its initial states
and that each term's commutator and the mask map into themselves
(:func:`_operator_subspace`, kind "operator subspace"): 5, 11 and 24 real
dimensions at N = 3, 4 and 6, against 16, 64 and 1024 entries of rho on
the block.  The kernel's state is then the coordinate vector of rho in a
basis of that space that diagonalizes the mask; its sampled states are
embedded back on the block exactly Hermitian.  A space of k^2 or more than
2k dimensions on a block of k basis states is not used
(:func:`_operator_limit`), and such runs keep to the block.  Each member of
a dephased batch gets the space of its own terms and initial state, so its
results do not depend on its batch; members whose spaces have the same
dimensions share a plan, and if one has no such space the batch keeps to
the block.

Every run scans its gap: it diagonalizes H(t) at each sample time on
diagonal blocks and merges their spectra (:func:`_gap_blocks`).  A
symmetric LMG Hamiltonian, whose terms are exactly the register's J_z,
J_x^2 and J_y^2, is block-diagonal in the total spin j, and each spin-j
irrep splits into the halves of even and odd j - m, at most N / 2 + 1
dimensions.  Other Hamiltonians (with disorder, say) are diagonalized on
the connected components of the nonzero pattern of their terms, the two
parity blocks of an LMG Hamiltonian.  Either way the ferromagnetic ground
doublet has its members in two blocks.  When the process may use two CPUs
and the blocks are large, a batch's scans run on one helper thread while
the batch is integrated (:func:`_beside`); the scan is the same either
way, so its bits do not depend on where it ran.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .errors import DimensionMismatchError, StepFailureError
from .model import LinearHamiltonian, _collective_products
from .operators import spin_j_operators
from .states import check_density_matrix, ground_band_size

#: Default master-equation step (1/nu).  The spread of H(t) is about
#: 0.65 N nu, so at N = 10 the step times the spread is 6.5, just above 2 pi.
#: Measured against a step of 0.25 up to N = 10, the populations of the
#: preset runs err by at most 2e-9 at 1/nu, where RK4 at 0.25/nu errs by up to 9e-5; at 2/nu the
#: step errs by up to 1e-4 (case III at N = 8 and 10).
DEFAULT_STEP = 1.0
#: Largest coefficient table of one kernel call (bytes), which bounds its
#: memory.  A batch of B members with K distinct terms takes as many whole
#: blocks of ``_kernels.BLOCK_STEPS`` (500) steps a call as fit
#: TABLE_BYTES / (16 B K) steps (the table holds 2 n + 1 half-step rows of
#: B K float64), and at least one: a single run of three terms takes up to
#: 32500 steps, so every preset window is one call, and the 13-member
#: criterion-8 ensemble (15 terms, 504 steps) takes one block.  The sampled
#: trace is checked after every call, which stops a blown-up batch at the
#: end of the call.
TABLE_BYTES = 3 << 19
#: Most steps a run may take.  At the few microseconds a step costs on the
#: smallest registers this is hours of integration, so a step count past it
#: is a typo (a step of 5e-13 over the preset window asks for 8e15 steps)
#: rather than a run to wait for.  The step count and the sample steps stay
#: exact integers in float64 and in int64 far beyond it.
MAX_STEPS = 10**9
#: A run stops with StepFailureError once a sampled trace defect exceeds this;
#: the CF4 step keeps the trace to rounding, so only a blown-up run does.
TRACE_TOL = 1e-8
#: A new direction of the invariant-subspace closure must stick out of the
#: subspace by more than this (the terms are scaled to unit norm, the basis
#: vectors have it, and the initial states have unit trace); rounding leaves
#: about 1e-15.
_RANK_TOL = 1e-12
#: The closure is used only if every unit-norm term maps it into itself to
#: within the first bound (Frobenius norm) and it holds every initial state
#: to within the second.
_INVARIANCE_TOL = 1e-12
_STATE_TOL = 1e-14


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


def calibrated_schedule(t_final: float = 4000.0) -> DriveSchedule:
    """Schedule realizing the stated initial condition Omega2(0) ≈ 0.

    Omega1 is effectively held at its final value 2*zeta, zeta = 0.3 (its
    ramp of 2000/nu is centered at t = -12000/nu, six ramps before the
    window), while Omega2 sweeps from ~0 to 2*zeta over a ramp of 500/nu
    around the window midpoint.  Dispersion offsets still scale both
    envelopes the same way as in the unshifted form.  The unshifted
    envelopes, ``DriveSchedule()``, give Omega1(0) = Omega2(0) = zeta, so a
    run started at t = 0 does not begin in the single-drive regime.
    """
    return DriveSchedule(zeta=0.3, ramp1=2000.0, ramp2=500.0, t0_1=-12000.0,
                         t0_2=t_final / 2.0)


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


@dataclass
class TrajectoryResult:
    """Sampled quantities of one master-equation run (times in 1/nu)."""

    times: np.ndarray
    populations: Dict[str, np.ndarray]
    bilinears: Dict[str, np.ndarray]
    purity: np.ndarray
    trace_defect: np.ndarray
    hermiticity_defect: np.ndarray
    #: Spectral gap of H(t) above its ground band at each sample time.
    gap: np.ndarray
    step: float
    n_steps: int
    #: How far the largest unclipped tracked population went outside [0, 1]
    #: (0 when every sample stayed inside); ``populations`` are clipped.
    population_excursion: float
    #: The plan the run was integrated on; every state it returns is 0
    #: outside its basis (exactly for basis states, up to rounding for a subspace).
    basis: _Plan
    #: The final state as a (k, k) matrix on the k columns of ``basis.q``.
    basis_final: np.ndarray
    #: The sampled states as (n_samples, k, k) matrices on the k columns of
    #: ``basis.q`` (None when they are not stored).
    basis_samples: Optional[np.ndarray]
    #: Smallest eigenvalue of the sampled states (None when they are not stored).
    min_eigenvalue: Optional[float]

    @cached_property
    def rho_final(self) -> np.ndarray:
        """The final state as a (d, d) matrix, embedded when first read."""
        return self.basis.embed(self.basis_final)

    @cached_property
    def rho_samples(self) -> Optional[np.ndarray]:
        """The sampled states as (n_samples, d, d) matrices, embedded when first read."""
        if self.basis_samples is None:
            return None
        return self.basis.embed(self.basis_samples)

    @property
    def integrated_dim(self) -> int:
        """Dimension of the integration basis (real dimension for an operator subspace)."""
        return self.basis.dim

    @property
    def integrated_basis(self) -> str:
        """The kind of integration basis: "basis states", "subspace" or "operator subspace"."""
        return self.basis.kind

    @property
    def diagnostics(self) -> Dict[str, Optional[float]]:
        """How close the run came to its numerical limits, and the dimension it ran at."""
        return {
            "n_steps": self.n_steps,
            "integrated_dim": self.integrated_dim,
            "integrated_basis": self.integrated_basis,
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
        raise ValueError(f"t_span over step is {steps:.6g} steps, above the step limit "
                         f"({MAX_STEPS:.0e})")
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


def _hamiltonian_matrix(hamiltonian: LinearHamiltonian, times: np.ndarray,
                        terms: np.ndarray) -> np.ndarray:
    """(T, ...) stack of sum_k c_k(t) terms[k] at the given times.

    ``terms`` (K, ...) holds the Hamiltonian's terms or parts of them.  A
    one-row table is multiplied as two rows and the pad dropped: as a
    matrix-vector product it would round differently, so each row's bits do
    not depend on the rows built with it.
    """
    table = hamiltonian.coefficient_table(times)
    n = len(table)
    rows = np.repeat(table, 2, axis=0) if n == 1 else table
    return (rows @ terms.reshape(len(terms), -1))[:n].reshape(n, *terms.shape[1:])


def spectral_gap(h: Union[np.ndarray, Sequence[np.ndarray]]) -> Union[float, np.ndarray]:
    """Gap from the (possibly quasi-degenerate) ground band to the next level.

    The band is that of :func:`lmg_adiabat.states.ground_band_size`, the
    levels up to 1e-3 of the spectral spread above the ground level.  A
    (..., d, d) stack gives an array of gaps with the band rule applied to
    each matrix; a single matrix gives a float.  ``h`` may also be a list of
    (..., n, s, s) stacks holding the diagonal blocks of one block-diagonal
    matrix, n blocks of size s in each; their eigenvalues are merged into its
    spectrum.
    """
    if isinstance(h, (list, tuple)):
        vals = np.concatenate([np.linalg.eigvalsh(x).reshape(*x.shape[:-3], -1) for x in h],
                              axis=-1)
        vals.sort(axis=-1)
    else:
        vals = np.linalg.eigvalsh(h)
    ground = vals[..., 0]
    k = ground_band_size(vals)
    above = np.take_along_axis(vals, np.minimum(k, vals.shape[-1] - 1)[..., None], axis=-1)
    gap = np.where(k < vals.shape[-1], above[..., 0] - ground, 0.0)
    return float(gap) if gap.ndim == 0 else gap


def _component_labels(terms: np.ndarray) -> np.ndarray:
    """Label of each basis index: the smallest index of its connected component.

    Two indices are connected when some term has a nonzero entry between
    them.  Every LMG term, the disorder term and sigma_z dephasing conserve
    the spin-flip parity prod_j sigma_z^j, so an LMG Hamiltonian has two
    components, the parity blocks of dimension 2^(N-1).
    """
    coupled = np.any(terms != 0, axis=0)
    coupled |= coupled.T
    labels = np.arange(coupled.shape[0])
    while True:
        lowest = np.minimum(labels, np.where(coupled, labels, labels.size).min(axis=1))
        if np.array_equal(lowest, labels):
            return labels
        labels = lowest


def _is_symmetric_lmg(terms: np.ndarray) -> bool:
    """Whether the terms are exactly J_z, J_x^2 and J_y^2 of an N-spin register, in that order."""
    kk, d, _ = terms.shape
    n = d.bit_length() - 1
    if kk != 3 or d != 1 << n or not 1 <= n <= 10:
        return False
    return all(np.array_equal(t, p) for t, p in zip(terms, _collective_products(n)))


@lru_cache(maxsize=4)
def _spin_blocks(n_spins: int) -> Tuple[np.ndarray, ...]:
    """J_z, J_x^2 and J_y^2 on the parity halves of every spin-j irrep of n spins.

    In the irrep of total spin j, on |j, m> for m = j, j - 1, .., -j
    (:func:`operators.spin_j_operators`), J_x^2 and J_y^2 are real and couple
    m only to m +- 2: each irrep splits into the halves of even and of odd
    j - m.  Returns one read-only
    (3, n, s, s) stack per half size s, in increasing s, holding the n
    halves of that size.  Each j counts once: the spectrum's multiplicities
    do not change the band rule of :func:`spectral_gap`.
    """
    by_size: Dict[int, List[np.ndarray]] = {}
    for two_j in range(n_spins, -1, -2):
        m, raising = spin_j_operators(two_j)
        jx, jy_i = raising + raising.T, raising - raising.T  # 2 J_x and 2 i J_y
        terms = np.stack([np.diag(m), 0.25 * (jx @ jx), -0.25 * (jy_i @ jy_i)])
        for first in (0, 1):
            half = np.arange(first, two_j + 1, 2)
            if half.size:
                by_size.setdefault(half.size, []).append(terms[:, half[:, None], half])
    blocks = tuple(np.stack(by_size[s], axis=1) for s in sorted(by_size))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def _gap_blocks(terms: np.ndarray) -> List[np.ndarray]:
    """The (K, n, s, s) terms of the diagonal blocks the gap scan diagonalizes, by size.

    Terms that are exactly the register's J_z, J_x^2 and J_y^2 (a symmetric
    LMG Hamiltonian, read from the terms alone) give the parity halves of
    the spin-j irreps (:func:`_spin_blocks`): N + 1 dimensions in all for
    j = N / 2, against two parity blocks of 2^(N-1).  Any other terms (with
    disorder, say) give the connected components of their nonzero pattern
    (:func:`_component_labels`), real when the terms are.
    """
    if _is_symmetric_lmg(terms):
        return list(_spin_blocks(terms.shape[1].bit_length() - 1))
    labels = _component_labels(terms)
    components = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    if not np.any(terms.imag):
        terms = terms.real
    groups = []  # the (K, n, s, s) terms of the n components of size s
    for size in sorted({c.size for c in components}):
        idx = np.stack([c for c in components if c.size == size])
        groups.append(terms[:, idx[:, :, None], idx[:, None, :]])
    return groups


def _gap_scan(hamiltonian: LinearHamiltonian, times: np.ndarray,
              groups: Sequence[np.ndarray]) -> np.ndarray:
    """Spectral gap at each time, from the eigenvalues of H(t)'s diagonal blocks.

    ``groups`` holds the blocks of the Hamiltonian's terms by size, as
    :func:`_gap_blocks` returns them.  The blocks of H(t) are built from the
    coefficient table and diagonalized in stacks of at most
    ``_kernels.GAP_STACK_BYTES``.
    """
    flat = np.concatenate([g.reshape(len(g), -1) for g in groups], axis=1)
    splits = np.cumsum([g[0].size for g in groups])[:-1]
    per_call = max(1, _kernels.GAP_STACK_BYTES // (flat.itemsize * flat.shape[1]))
    gaps = []
    for i in range(0, times.size, per_call):
        h = _hamiltonian_matrix(hamiltonian, times[i:i + per_call], flat)
        blocks = [part.reshape(len(h), *g.shape[1:])
                  for part, g in zip(np.split(h, splits, axis=1), groups)]
        gaps.append(spectral_gap(blocks))
    return np.concatenate(gaps)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _beside(work: Callable[[], object], scan: Callable[[], object],
            overlap: bool) -> Tuple[object, object]:
    """``(work(), scan())``, with ``scan`` on one helper thread while ``work`` runs.

    The helper thread runs in a copy of the caller's context, so ``scan``
    sees the caller's ``np.errstate``, and it is joined on every path.  An
    error of ``work`` wins over one of ``scan``, which is raised only once
    ``work`` has returned.  Without ``overlap``, or in a process that may use
    only one CPU, both run here, ``work`` first, and no thread starts.  The
    gap scan pays on the second CPU because ``eigvalsh`` releases the GIL for
    a whole stack.
    """
    if not overlap or _usable_cpus() < 2:
        return work(), scan()
    outcome = []

    def run():
        try:
            outcome.append((scan(), None))
        except BaseException as exc:  # raised below once ``work`` has returned
            outcome.append((None, exc))

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,),
                              name="lmg-adiabat gap scan")
    thread.start()
    try:
        out = work()
    finally:
        thread.join()
    result, error = outcome[0]
    if error is not None:
        raise error
    return out, result


def evolve(spec: LindbladSpec, rho0: np.ndarray, t_span: Tuple[float, float],
           **options) -> TrajectoryResult:
    """Integrate the master equation over ``t_span`` and sample the tracked forms.

    The batch of one of :func:`evolve_batch`, which documents the options.
    """
    return evolve_batch([spec], [rho0], t_span, **options)[0]


def evolve_batch(
    specs: Sequence[LindbladSpec],
    rho0s: Sequence[np.ndarray],
    t_span: Tuple[float, float],
    *,
    n_samples: int = 401,
    step: float = DEFAULT_STEP,
    populations: Optional[Mapping[str, np.ndarray]] = None,
    bilinears: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
    store_states: Optional[bool] = None,
) -> List[TrajectoryResult]:
    """Integrate several master equations together, one result per member.

    The members share the time grid, the dephasing rates and the tracked
    quantities, and are integrated in one loop over a stack of density
    matrices.  The step count is the larger of ``n_samples - 1`` and the
    window over ``step``, so a short window keeps every requested sample.
    ``populations`` maps names to state vectors tracked as <psi|rho|psi>;
    ``bilinears`` maps names to vector pairs tracked as <a|rho|b> (used for
    phase-optimized populations).  ``store_states``
    (default: d <= 64) keeps the sampled states, and only then is their
    smallest eigenvalue computed (``min_eigenvalue``); they are embedded in
    the full space when ``rho_samples`` is first read.  Without dephasing
    the batch is integrated on one basis for all its members (see the
    module docstring), the invariant subspace of all its initial states
    together, so a member can differ from its standalone run by rounding;
    with dephasing each member runs on the operator space of its own
    terms and state.  Every member's gap is scanned at the sample times
    (``gap``) on the diagonal blocks of :func:`_gap_blocks`, which are found
    once per member.  The scans run on one helper thread while the batch is
    integrated when the process may use two CPUs and those blocks take at
    least ``_kernels.GAP_OVERLAP_BYTES`` over the samples (:func:`_beside`),
    and after the integration otherwise.  Raises
    :class:`StepFailureError` when a member's sampled trace defect exceeds
    ``TRACE_TOL``, at the end of the kernel call (``TABLE_BYTES``) in which
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
    form_pairs = [(v, v) for v in populations.values()]
    form_pairs += [(a, b) for a, b in bilinears.values()]
    for name, (fl, fr) in zip(list(populations) + list(bilinears), form_pairs):
        if np.shape(fl) != (dim,) or np.shape(fr) != (dim,):
            raise DimensionMismatchError(f"registered state {name!r} does not match dim {dim}")
    form_left, form_right = (np.array([p[i] for p in form_pairs], dtype=np.complex128)
                             .reshape(-1, dim) for i in (0, 1))

    if store_states is None:
        store_states = dim <= 64
    hams = [spec.hamiltonian for spec in specs]
    for ham in hams:
        if ham.dim != dim:
            raise DimensionMismatchError(
                f"hamiltonian dim {ham.dim} does not match density matrix dim {dim}"
            )

    def integrate():
        return _integrate_blocks(hams, w, np.stack(rho0s), t0, h, n_steps, sample_idx,
                                 form_left, form_right, bool(store_states))

    blocks = [_gap_blocks(ham.terms) for ham in hams]
    # the float64 (or complex) blocks the members' scans diagonalize, at every sample
    scan_bytes = times.size * sum(g[0].nbytes for groups in blocks for g in groups)
    integrated, gaps = _beside(
        integrate, lambda: [_gap_scan(ham, times, groups) for ham, groups in zip(hams, blocks)],
        scan_bytes >= _kernels.GAP_OVERLAP_BYTES)
    forms, pur, tdef, hdef, states, rho_final, plans = integrated
    plan_of = {i: plan for plan in plans for i in np.arange(len(specs))[plan.members]}

    results = []
    for b, spec in enumerate(specs):
        unclipped = forms[b, :, :len(populations)].real
        pop_out = {
            name: np.clip(unclipped[:, k], 0.0, 1.0) for k, name in enumerate(populations)
        }
        bil_out = {
            name: forms[b, :, len(populations) + k] for k, name in enumerate(bilinears)
        }
        results.append(TrajectoryResult(
            times=times,
            populations=pop_out,
            bilinears=bil_out,
            purity=pur[b],
            trace_defect=tdef[b],
            hermiticity_defect=hdef[b],
            gap=gaps[b],
            step=h,
            n_steps=n_steps,
            population_excursion=float(np.max(np.maximum(-unclipped, unclipped - 1.0),
                                              initial=0.0)),
            basis=plan_of[b],
            basis_final=rho_final[b],
            basis_samples=states[b] if store_states else None,
            min_eigenvalue=_min_eigenvalue(states[b]) if store_states else None,
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

    These are the connected components (:func:`_component_labels`) of the
    rows and columns where any initial state is nonzero.  The dephasing mask
    acts elementwise and couples nothing, so from a state of definite parity
    this is that parity's 2^(N-1) block.
    """
    labels = _component_labels(terms)
    occupied = rho0s != 0
    start = np.any(occupied, axis=(0, 1)) | np.any(occupied, axis=(0, 2))
    return np.flatnonzero(np.isin(labels, labels[start]))


def _extend_basis(q: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Orthonormal columns ``q`` extended by the span of ``candidates`` outside them.

    The candidates are projected off ``q`` twice (classical Gram-Schmidt
    with reorthogonalization).  Then the candidate with the largest remainder
    is normalized and appended, and the others are projected off it twice,
    until no remainder exceeds ``_RANK_TOL``: a rank-revealing pivoted
    Gram-Schmidt, whose order is fixed by the inputs alone.
    """
    for _ in range(2):
        candidates = candidates - q @ (q.conj().T @ candidates)
    new = []
    while candidates.shape[1]:
        norms = np.linalg.norm(candidates, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= _RANK_TOL:
            break
        v = candidates[:, j] / norms[j]
        new.append(v)
        candidates = np.delete(candidates, j, axis=1)
        for _ in range(2):
            candidates = candidates - np.outer(v, v.conj() @ candidates)
    return np.column_stack([q, *new]) if new else q


def _invariant_subspace(terms: np.ndarray, rho0s: np.ndarray,
                        limit: int) -> Optional[np.ndarray]:
    """Orthonormal basis Q (d, k) of the initial states' invariant subspace, or None.

    That is the smallest subspace that holds every initial state and that
    every term maps into itself.  The closure starts from the columns of the
    initial states and appends the images of each new basis vector under
    every term (:func:`_extend_basis`) until nothing new comes.  Each term is
    scaled to unit norm first, so that a small term (a disorder fraction of
    1e-8, say) is not mistaken for rounding.  Q is real when the terms and
    the states are.  Returns None when the closure reaches ``limit``
    dimensions, or when a unit-norm term maps Q out of itself by more than
    ``_INVARIANCE_TOL`` or Q Q^H loses more than ``_STATE_TOL`` of an
    initial state.
    """
    d = rho0s.shape[1]
    real = not (np.any(terms.imag) or np.any(rho0s.imag))
    # the infinity norm of a term bounds its 2-norm
    norms = np.array([np.abs(term).sum(axis=1).max() for term in terms])
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)

    def images(v):
        """(d, K n) images of the n columns v under the K unit-norm terms."""
        out = (terms @ v) * scale[:, None, None]
        return (out.real if real else out).transpose(1, 0, 2).reshape(d, -1)

    columns = rho0s.transpose(1, 0, 2)[:, np.any(rho0s != 0, axis=1)]
    q = _extend_basis(np.zeros((d, 0)), columns.real if real else columns)
    done = 0
    while done < q.shape[1] < limit:
        new, done = q[:, done:], q.shape[1]
        q = _extend_basis(q, images(new))
    if q.shape[1] >= limit:
        return None
    image = images(q)
    leak = (image - q @ (q.conj().T @ image)).reshape(d, len(terms), -1)
    projector = q @ q.conj().T
    if (np.linalg.norm(leak, axis=(0, 2)).max(initial=0.0) > _INVARIANCE_TOL
            or max(np.linalg.norm(r - projector @ r @ projector) for r in rho0s) > _STATE_TOL):
        return None
    return q


def _operator_subspace(terms: np.ndarray, w: np.ndarray, rho0s: np.ndarray,
                       limit: int) -> Optional[_kernels.OperatorBasis]:
    """Basis of the smallest operator space a dephased run stays in, or None.

    ``terms`` (K, k, k), ``w`` (k, k) and ``rho0s`` (n, k, k) are given on
    the block of basis states the run reaches.  The space is the smallest
    space of Hermitian k x k operators that holds the initial states and
    that each term's commutator X -> -i [T, X] and the mask X -> W o X map
    into themselves.  For real terms and states it splits into real
    symmetric operators S and imaginary antisymmetric ones i A: a commutator
    maps S to i (S T - T S) and i A to T A - A T, and the mask keeps each
    half.  The closure runs on both halves at once, as vectors vec(S) and
    vec(A) extended by :func:`_extend_basis`, from the initial states until
    nothing new comes; the terms and the mask are scaled to unit norm as in
    :func:`_invariant_subspace`, and the same checks apply.  Each half is
    then rotated to diagonalize the mask.  The terms and states must be real
    (:func:`_integration_plans` sends no others); returns None when the
    closure reaches ``limit`` dimensions.
    """
    kk, k, _ = terms.shape
    norms = np.array([np.abs(term).sum(axis=1).max() for term in terms])
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    mask = w.reshape(k * k, 1)
    mask_scale = 1.0 / np.abs(w).max() if np.any(w) else 0.0
    # columns per product of the commutator images, so that each product's
    # K images stay within STACK_BYTES, and at least one column
    per_call = max(1, _kernels.STACK_BYTES // (8 * kk * k * k))

    def commutators(v, sign):
        """(K, k^2, n) vec(Y + sign Y^T), Y = V T, of the n columns V under the K terms.

        For symmetric V and sign -1 that is V T - T V, for antisymmetric V
        and sign +1 it is -(T V - V T).
        """
        y = v.T.reshape(-1, 1, k, k) @ terms
        return (y + sign * y.swapaxes(-1, -2)).reshape(-1, kk, k * k).transpose(1, 2, 0)

    def extend(q, new, sign, same):
        """``q`` extended by the unit-norm images of the columns ``new`` of the other
        half and by the mask images of the columns ``same`` of its own half."""
        for i in range(0, new.shape[1], per_call):
            images = commutators(new[:, i:i + per_call], sign) * scale[:, None, None]
            q = _extend_basis(q, images.transpose(1, 0, 2).reshape(k * k, -1))
        return _extend_basis(q, mask_scale * mask * same)

    q1 = _extend_basis(np.zeros((k * k, 0)), rho0s.reshape(len(rho0s), k * k).T)
    q2 = np.zeros((k * k, 0))
    done1 = done2 = 0
    while (done1, done2) != (q1.shape[1], q2.shape[1]):
        if q1.shape[1] + q2.shape[1] >= limit:
            return None
        new1, new2 = q1[:, done1:], q2[:, done2:]
        done1, done2 = q1.shape[1], q2.shape[1]
        q1 = extend(q1, new2, 1.0, new1)
        q2 = extend(q2, new1, -1.0, new2)

    def project(v, sign, q):
        """Coordinates on ``q`` of the images of the columns ``v`` under the K
        terms, (K, r, n), and the norm of what each unit-norm term maps outside q."""
        coords = np.empty((kk, q.shape[1], v.shape[1]))
        outside = np.zeros(kk)
        for i in range(0, v.shape[1], per_call):
            images = commutators(v[:, i:i + per_call], sign)
            coords[:, :, i:i + per_call] = q.T @ images
            outside += np.square(images - q @ coords[:, :, i:i + per_call]).sum(axis=(1, 2))
        return coords, np.sqrt(outside) * scale

    def outside(q, image):
        return np.linalg.norm(image - q @ (q.T @ image))

    couplings, leak_anti = project(q1, -1.0, q2)
    _, leak_sym = project(q2, 1.0, q1)
    states = rho0s.reshape(len(rho0s), k * k).T
    if (max(np.max(leak_anti, initial=0.0), np.max(leak_sym, initial=0.0),
            mask_scale * outside(q1, mask * q1), mask_scale * outside(q2, mask * q2))
            > _INVARIANCE_TOL
            or np.linalg.norm(states - q1 @ (q1.T @ states), axis=0).max() > _STATE_TOL):
        return None

    def mask_eigenbasis(q):
        m = q.T @ (mask * q)
        return np.linalg.eigh(0.5 * (m + m.T))

    rates1, rot1 = mask_eigenbasis(q1)
    rates2, rot2 = mask_eigenbasis(q2)
    return _kernels.OperatorBasis(
        symmetric=np.ascontiguousarray((q1 @ rot1).T)[None],
        antisymmetric=np.ascontiguousarray((q2 @ rot2).T)[None],
        rates=np.concatenate([rates1, rates2])[None],
        couplings=(rot2.T @ couplings @ rot1)[None])


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


class _Plan:
    """A group of a batch's ``members`` and the basis it is integrated on.

    ``members`` indexes the batch: a slice for the whole batch, whose
    coefficient table is then passed without a copy, or an index array.
    The basis is the span of the orthonormal columns of ``q`` (d, k).
    ``kind`` is "basis states" when ``q`` selects columns of the identity,
    "subspace" for an invariant subspace of a run without dephasing, and
    "operator subspace" when the kernel's state is the coordinate vector of
    rho on ``operators``, a basis of operators on the selected block; then
    ``dim`` is the dimension of that operator space.
    """

    def __init__(self, members: Union[slice, np.ndarray], q: np.ndarray, kind: str,
                 operators: Optional[_kernels.OperatorBasis] = None):
        self.members, self.q, self.kind, self.operators = members, q, kind, operators
        self.dim = q.shape[1] if operators is None else operators.dim

    def restrict(self, terms, w, rho, form_left, form_right):
        """Kernel inputs on the basis: Q^H X Q for the matrices, Q^H a for the vectors.

        The matrices are Hermitized, so the terms stay exactly Hermitian, and
        real when Q, the terms and the states are.  For a selection Q the
        products pick entries: every entry is one entry times 1 plus zeros.
        """
        q, qh = self.q, self.q.conj().T
        if q.dtype == np.float64 and not (np.any(terms.imag) or np.any(rho.imag)):
            terms, rho = terms.real, rho.real

        def sandwich(x):
            return _hermitian_part(qh @ x @ q)

        terms, rho = (np.ascontiguousarray(sandwich(x), dtype=np.complex128) for x in (terms, rho))
        return (terms, np.ascontiguousarray(sandwich(w).real), rho,
                *(np.ascontiguousarray(f @ q.conj()) for f in (form_left, form_right)))

    def embed(self, x: np.ndarray) -> np.ndarray:
        """(..., k, k) states on the basis as the Hermitian (..., d, d) states Q X Q^H.

        Built in stacks of at most ``_kernels.STACK_BYTES``, so that the
        Hermitian part needs no temporaries of the size of the output.
        """
        q, qh = self.q, self.q.conj().T
        d, k = q.shape
        states = x.reshape(-1, k, k)
        out = np.empty((len(states), d, d), dtype=np.complex128)
        per_call = max(1, _kernels.STACK_BYTES // (16 * d * d))
        for i in range(0, len(states), per_call):
            out[i:i + per_call] = _hermitian_part(q @ states[i:i + per_call] @ qh)
        return out.reshape(*x.shape[:-2], d, d)


def _operator_limit(k: int) -> int:
    """Dimension from which a dephased run on k basis states keeps to the per-step loop.

    The operator space must be smaller than the k^2 dimensions of all
    Hermitian k x k matrices, and at most 2k.  Measured on 1000-step case I
    runs: 16 dimensions at k = 4 took 41 ms against 28 ms per step on the
    block, 62 at k = 8 took 377 ms against 45 ms, while 14 at k = 16 took
    53 ms against 101 ms and 24 at k = 32 took 182 ms against 340 ms.
    """
    return min(k * k, 2 * k + 1)


def _integration_plans(terms: np.ndarray, columns: Sequence[Sequence[int]], w: np.ndarray,
                       rho0s: np.ndarray) -> List[_Plan]:
    """The members of a batch in groups that are integrated together, one plan each.

    ``columns`` holds each member's indices into the union ``terms``
    (:func:`_term_union`).  The fallback is one group on the block of basis
    states that the initial states reach through the union's terms.
    Without dephasing the batch is one group on the invariant subspace of
    all its initial states when that is smaller than the block.  With
    dephasing each member's operator space on the block
    (:func:`_operator_subspace`, below :func:`_operator_limit`) is found
    from its own terms and initial state, so that a member's bits do not
    depend on its batch, and the members whose spaces have the same
    dimensions form one group.  If a member has complex terms or a complex
    initial state, or its own terms reach another block, or its space is not
    found, the batch is one group on the block.  The first three are checked
    for every member before any closure runs, and the closures stop at the
    first member without a space.
    """
    everyone = slice(None)
    keep = _reachable_indices(terms, rho0s)
    block = _Plan(everyone, np.eye(rho0s.shape[1])[:, keep], "basis states")
    if not np.any(w):
        q = _invariant_subspace(terms, rho0s, keep.size)
        return [block if q is None else _Plan(everyone, q, "subspace")]
    inside = (Ellipsis, keep[:, None], keep)
    rho_of: Dict[Tuple, np.ndarray] = {}
    keys = []
    for cols, rho0 in zip(columns, rho0s):
        own = list(dict.fromkeys(cols))
        key = (tuple(own), rho0.tobytes())
        if key not in rho_of:
            if (np.any(terms[own][inside].imag) or np.any(rho0[inside].imag)
                    or not np.array_equal(_reachable_indices(terms[own], rho0[None]), keep)):
                return [block]
            rho_of[key] = rho0
        keys.append(key)
    spaces: Dict[Tuple, _kernels.OperatorBasis] = {}
    for key, rho0 in rho_of.items():
        own = list(key[0])
        space = _operator_subspace(terms[own][inside].real, w[inside], rho0[inside][None].real,
                                   _operator_limit(keep.size))
        if space is None:
            return [block]
        spaces[key] = space
    if len(spaces) == 1:  # the members share their terms and state, so the union is theirs
        return [_Plan(everyone, block.q, "operator subspace", spaces[keys[0]])]
    plans = []
    shapes = [spaces[key].couplings.shape[2:] for key in keys]
    for shape in dict.fromkeys(shapes):
        members = np.flatnonzero([s == shape for s in shapes])
        ops = [spaces[keys[i]] for i in members]
        couplings = np.zeros((len(members), len(terms), *shape))
        for j, i in enumerate(members):
            couplings[j, list(keys[i][0])] = ops[j].couplings[0]
        operators = _kernels.OperatorBasis(
            *(np.concatenate([getattr(op, name) for op in ops])
              for name in ("symmetric", "antisymmetric", "rates")), couplings)
        plans.append(_Plan(members, block.q, "operator subspace", operators))
    return plans


def _min_eigenvalue(states: np.ndarray) -> float:
    """Smallest eigenvalue of an (m, k, k) stack of states on the integrated basis.

    Outside that basis the embedded states are 0, so their eigenvalues
    there are 0 and would hide the ones inside.  The stack is diagonalized
    in pieces of at most ``_kernels.STACK_BYTES``.
    """
    per_call = max(1, _kernels.STACK_BYTES // (16 * states.shape[-1]**2))
    return float(min(np.linalg.eigvalsh(states[i:i + per_call])[:, 0].min()
                     for i in range(0, len(states), per_call)))


def _integrate_blocks(hams, w, rho, t0, h, n_steps, sample_idx,
                      form_left, form_right, store_rho):
    """Kernel loop over spans of whole ``_kernels.BLOCK_STEPS`` blocks within ``TABLE_BYTES``.

    Each plan of :func:`_integration_plans` runs its members on its own
    basis, as one kernel call per span on its (2n+1, B, K) table and
    (B, k, k) states, carrying the states across spans; a call samples the
    forms <l|rho|r>, the purity and the trace and Hermiticity defects, and
    the states when ``store_rho`` is set.  The sampled states and the final
    state come back on the basis states the plans share (the columns of
    their ``q``), followed by the plans.
    """
    terms, columns = _term_union(hams)
    kern = _kernels.get_kernels()
    b = len(hams)
    plans = _integration_plans(terms, columns, w, rho)
    inputs = [plan.restrict(terms, w, rho[plan.members], form_left, form_right)
              for plan in plans]
    k = plans[0].q.shape[1]  # every plan's states are on the same basis states
    samples = _kernels._lindblad_outputs(b, sample_idx.size, form_left.shape[0], k, store_rho)
    rho = np.empty((b, k, k), dtype=np.complex128)
    for plan, (_, _, rho0, _, _) in zip(plans, inputs):
        rho[plan.members] = rho0
    grid = _kernels.BLOCK_STEPS
    block = grid * max(1, TABLE_BYTES // (16 * b * len(terms) * grid))
    for s0 in range(0, n_steps, block):
        s1 = min(s0 + block, n_steps)
        # global half-step index, so every row matches a whole-window table
        half_times = t0 + (h / 2.0) * np.arange(2 * s0, 2 * s1 + 1, dtype=np.float64)
        ctab = np.zeros((half_times.size, b, terms.shape[0]))
        for i, (ham, cols) in enumerate(zip(hams, columns)):
            table = ham.coefficient_table(half_times)
            for j, col in enumerate(cols):
                ctab[:, i, col] += table[:, j]
        # a block records the samples in (s0, s1]; the first also records step 0
        lo = np.searchsorted(sample_idx, s0 + 1 if s0 else 0)
        hi = np.searchsorted(sample_idx, s1, side="right")
        for plan, (g_terms, g_w, _, g_left, g_right) in zip(plans, inputs):
            members = plan.members
            *block_samples, rho[members] = kern.lindblad_cf4(
                g_terms, ctab[:, members], g_w, rho[members], h, sample_idx[lo:hi] - s0,
                g_left, g_right, store_rho, plan.operators)
            for full, part in zip(samples, block_samples):
                full[members, lo:hi] = part
        _check_trace(samples[2][:, lo:hi], t0 + h * sample_idx[lo:hi].astype(np.float64), h)
    return (*samples, rho, plans)


def _check_trace(tdef: np.ndarray, times: np.ndarray, h: float) -> None:
    """Raise StepFailureError at the first sample whose trace defect exceeds TRACE_TOL."""
    bad = ~(tdef <= TRACE_TOL)  # also catches NaN from a blown-up run
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        b = int(np.argmax(bad[:, j]))
        who = f"member {b}: " if tdef.shape[0] > 1 else ""
        raise StepFailureError(
            f"{who}trace defect {tdef[b, j]:.3e} at t = {times[j]:.6g} exceeds "
            f"{TRACE_TOL:.1e}; check that H(t) stays finite (step {h:.3g}/nu)"
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


def constant_hamiltonian_states(g: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact pure states under a constant Hermitian G, from one eigendecomposition.

    psi(t) = V e^{-i Lambda t} V† psi0 with G = V Lambda V†, with no time
    step.  Returns the (T, d) states at ``times`` (measured from t = 0).
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if g.shape != (psi0.size, psi0.size) or psi0.ndim != 1:
        raise DimensionMismatchError(f"hamiltonian {g.shape} and state {psi0.shape} do not match")
    lam, v = np.linalg.eigh(g)
    coeffs = np.exp(-1.0j * np.multiply.outer(np.asarray(times, dtype=np.float64), lam))
    return (coeffs * (v.conj().T @ psi0)) @ v.T
