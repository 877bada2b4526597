"""Small linear-algebra checks: Kronecker embedding and Hermitian ground spaces."""
import numpy as np
import pytest

from lmg_adiabat.operators import SpinRegister, embed_single_spin
from lmg_adiabat.states import dicke_state, ground_space, symmetric_sector_isometry

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_kron_sigma_z_identity():
    # sigma_z on factor 1 of 2 is sigma_z ⊗ I
    sz_1 = embed_single_spin(SpinRegister(2), 1, "z")
    assert np.array_equal(sz_1, np.diag([1, 1, -1, -1]).astype(complex))


def test_eig_pauli_x():
    gs = ground_space(SX)
    assert gs.energy == pytest.approx(-1.0)
    assert gs.gap == pytest.approx(2.0)
    assert gs.degeneracy == 1
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.abs(minus @ gs.vectors[:, 0]) == pytest.approx(1.0)


def test_eig_diagonal_permutation():
    gs = ground_space(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert gs.energy == pytest.approx(1.0)
    assert gs.gap == pytest.approx(1.0)
    # the ground vector is the second unit vector up to phase
    assert np.allclose(np.abs(gs.vectors), np.eye(3)[:, [1]])


def test_eig_jy_squared_triplet_sector():
    # brute-force 4x4: J_y for two spins, restricted to the symmetric sector,
    # where J_y^2 has the spectrum {0, 1, 1}
    jy = 0.5 * (np.kron(SY, I2) + np.kron(I2, SY))
    v = symmetric_sector_isometry(2)
    block = v.conj().T @ (jy @ jy) @ v
    gs = ground_space(block)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert gs.degeneracy == 1
    assert gs.gap == pytest.approx(1.0)
    m0_y = v.conj().T @ dicke_state(2, 0.0, "y")
    assert np.abs(m0_y.conj() @ gs.vectors[:, 0]) == pytest.approx(1.0)
