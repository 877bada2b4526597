"""Reference helpers that the tests compare the package against.

None of these runs behind the CLI: the ground space of a matrix by full
diagonalization, the isometry onto the maximal-J sector, the
phase-optimized population of one density matrix and the spin-flip parity
operator.
"""
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from lmg_adiabat.operators import SIGMA_Z, SpinRegister
from lmg_adiabat.states import dicke_state, ground_band_size, phase_optimized, population


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
