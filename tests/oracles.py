"""Reference helpers that the tests compare the package against.

None of these runs behind the CLI: the ground space of a matrix by full
diagonalization, the isometry onto the maximal-J sector, the
phase-optimized population of one density matrix, the spin-flip parity
operator, and the spin+resonator model of the reduction check on the whole
2^N-dim register with its rotating-frame solver.
"""
from dataclasses import replace
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from lmg_adiabat.dynamics import evolve_state, sample_times
from lmg_adiabat.errors import DimensionMismatchError
from lmg_adiabat.model import (
    FullModelParams,
    LinearHamiltonian,
    build_effective_lmg,
    effective_coefficients,
)
from lmg_adiabat.operators import (
    SIGMA_Z,
    FockSpace,
    SpinRegister,
    boson_operator,
    collective_operator,
)
from lmg_adiabat.protocols import _spin_readout
from lmg_adiabat.states import (
    dicke_state,
    ground_band_size,
    phase_optimized,
    population,
    target_state,
)


class GroundSpace(NamedTuple):
    energy: float
    vectors: np.ndarray  # (dim, degeneracy), orthonormal columns
    gap: float  # to the first level above the band (0 if none)

    @property
    def degeneracy(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def ground_space(h: np.ndarray, degeneracy_tol: Optional[float] = None) -> GroundSpace:
    """Ground energy, orthonormal ground band and gap of a Hermitian matrix.

    The band holds the levels within ``degeneracy_tol`` of the lowest, or by
    default the band of :func:`lmg_adiabat.states.ground_band_size`; the gap
    is measured from the band bottom to the next level.
    """
    vals, vecs = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    if degeneracy_tol is None:
        n_band = int(ground_band_size(vals))
    else:
        n_band = int(np.sum(vals <= vals[0] + degeneracy_tol))
    gap = float(vals[n_band] - vals[0]) if n_band < vals.size else 0.0
    return GroundSpace(float(vals[0]), vecs[:, :n_band], gap)


def symmetric_sector_isometry(n: int) -> np.ndarray:
    """Isometry V (2^N x (N+1)) onto the maximal-J sector.

    Column k is the z-basis Dicke state with m = N/2 - k, so V† O V is the
    (N+1)-dimensional block of any collective operator and V† psi the sector
    coordinates of a symmetric state.
    """
    return np.stack([dicke_state(n, n / 2.0 - k, "z") for k in range(n + 1)], axis=1)


def phase_optimized_population(rho: np.ndarray, branch_a: np.ndarray,
                               branch_b: Optional[np.ndarray]) -> float:
    """max over phi of <psi(phi)| rho |psi(phi)> with psi = (a + e^{i phi} b)/sqrt(2).

    With ``branch_b=None`` this is the plain population of ``branch_a``.
    """
    if branch_b is None:
        return population(rho, branch_a)
    a, b = branch_a.conj(), branch_b.conj()
    return float(phase_optimized(np.real(a @ rho @ branch_a), np.real(b @ rho @ branch_b),
                                 a @ rho @ branch_b))


def spin_flip_parity(reg: SpinRegister) -> np.ndarray:
    """⊗_j sigma_z^j: flips every |+>_y ↔ |->_y (and |+>_x ↔ |->_x).

    Commutes with J_z, J_x² and J_y², so it is conserved along the whole
    drive sweep and splits the two degenerate ferromagnetic ground branches.
    """
    return reduce(np.kron, [SIGMA_Z] * reg.n_spins)


def register_interaction_hamiltonian(p: FullModelParams) -> LinearHamiltonian:
    """The full spin ⊗ resonator Hamiltonian on the 2^N-dim register ⊗ Fock space.

    The same H(t) as :func:`lmg_adiabat.model.full_interaction_hamiltonian`,
    with J_+ the sum of the N single-spin sigma_+; the package's builder is
    its block on the symmetric sector.
    """
    reg = SpinRegister(p.n_spins)
    fock = FockSpace(p.fock_cutoff)
    jp = collective_operator(reg, "+")
    a = boson_operator(fock, "a")
    adag = a.conj().T
    eye_f = np.eye(fock.cutoff, dtype=np.complex128)

    products = [np.kron(jp, eye_f), np.kron(jp, adag), np.kron(jp, a)]
    term_list = []
    for c in products:
        term_list.append(c + c.conj().T)
        term_list.append(1.0j * (c - c.conj().T))
    terms = np.ascontiguousarray(np.stack(term_list))
    eta, delta, om1, om2 = p.eta, p.delta, p.omega1, p.omega2

    def coefficients(times: np.ndarray) -> np.ndarray:
        drive = om1 * np.exp(1.0j * delta * times) + om2 * np.exp(-1.0j * delta * times)
        z = np.stack(
            [drive, eta * np.exp(1.0j * times) * drive, -eta * np.exp(-1.0j * times) * drive],
            axis=-1,
        )
        out = np.empty((times.size, 6), dtype=np.float64)
        out[:, 0::2] = z.real
        out[:, 1::2] = z.imag
        return out

    return LinearHamiltonian(terms=terms, coefficients=coefficients)


def register_interaction_frame(p: FullModelParams) -> Optional[np.ndarray]:
    """Diagonal of K = s delta J_z ⊗ 1 + 1 ⊗ a†a on the register (None for two tones)."""
    if p.omega2 == 0.0:
        sign = 1.0
    elif p.omega1 == 0.0:
        sign = -1.0
    else:
        return None
    jz = collective_operator(SpinRegister(p.n_spins), "z").diagonal().real
    return np.add.outer(sign * p.delta * jz, np.arange(p.fock_cutoff, dtype=np.float64)).ravel()


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


def register_reduction(cfg, fock_cutoff: int, omega1: float, omega2: float,
                       t_final: float = 500.0, n_samples: int = 251) -> dict:
    """The runs of ``validate_effective_reduction`` on the whole register.

    The full model at ``fock_cutoff`` and at its double, and the effective
    model, each on 2^N spin amplitudes: one tone in the rotating frame of
    :func:`register_interaction_frame`, two tones with RK4 at step 0.02.
    Returns the report's arrays and scalars by their field names.
    """
    step = 0.02
    reg = SpinRegister(cfg.n_spins)
    params = FullModelParams(cfg.n_spins, fock_cutoff, cfg.eta, cfg.delta, omega1, omega2,
                             cfg.nbar)
    jz_diag = collective_operator(reg, "z").diagonal().real
    psi_spin = cfg.initial_state()
    target = target_state(cfg.case, cfg.n_spins)
    times = sample_times((0.0, t_final), step, n_samples)

    def full_run(cutoff):
        p = replace(params, fock_cutoff=cutoff)
        ham = register_interaction_hamiltonian(p)
        frame = register_interaction_frame(p)
        psi0 = np.kron(psi_spin, np.eye(cutoff)[0])
        if frame is None:
            _, psis, _ = evolve_state(ham, psi0, (0.0, t_final), n_samples=n_samples, step=step)
        else:
            psis = rotating_frame_states(ham.matrix(0.0), frame, psi0, times)
        jz, pop = _spin_readout(psis.reshape(times.size, reg.dim, cutoff), jz_diag, target)
        return jz, pop, abs(float(np.linalg.norm(psis[-1])) - 1.0)

    jz_full, pop_full, drift = full_run(fock_cutoff)
    jz_double, _, _ = full_run(2 * fock_cutoff)
    h_eff = build_effective_lmg(reg, effective_coefficients(cfg.eta, cfg.delta, omega1, omega2))
    psis_eff = rotating_frame_states(h_eff, np.zeros(reg.dim), psi_spin, times)
    jz_eff, pop_eff = _spin_readout(psis_eff[:, :, None], jz_diag, target)
    return {
        "times": times,
        "jz_full": jz_full,
        "jz_effective": jz_eff,
        "pop_full": pop_full,
        "pop_effective": pop_eff,
        "max_jz_deviation": float(np.max(np.abs(jz_full - jz_eff))),
        "max_population_deviation": float(np.max(np.abs(pop_full - pop_eff))),
        "cutoff_change": float(np.max(np.abs(jz_full - jz_double))),
        "norm_drift": drift,
    }
