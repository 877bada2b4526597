import itertools

import numpy as np
import pytest

from lmg_adiabat.operators import (
    SIGMA_Y,
    FockSpace,
    SpinRegister,
    boson_operator,
    collective_operator,
    embed_single_spin,
    spin_j_operators,
    y_basis_transform,
)
from oracles import spin_flip_parity, symmetric_sector_isometry


def test_embed_single_spin_examples():
    assert np.array_equal(embed_single_spin(SpinRegister(1), 1, "z"), np.diag([1.0, -1.0]))
    assert np.array_equal(
        embed_single_spin(SpinRegister(2), 1, "z"), np.diag([1.0, 1.0, -1.0, -1.0])
    )
    assert np.array_equal(
        embed_single_spin(SpinRegister(2), 2, "z"), np.diag([1.0, -1.0, 1.0, -1.0])
    )


def test_kron_sigma_z_identity():
    # sigma_z on factor 1 of 2 is sigma_z ⊗ I
    sz_1 = embed_single_spin(SpinRegister(2), 1, "z")
    assert np.array_equal(sz_1, np.diag([1, 1, -1, -1]).astype(complex))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_embed_factor_one_is_the_most_significant(n):
    # flipping spin j of |up...up> (index 0) sets bit 2^(N - j) of the index
    reg = SpinRegister(n)
    all_up = np.zeros(reg.dim)
    all_up[0] = 1.0
    for j in range(1, n + 1):
        assert np.flatnonzero(embed_single_spin(reg, j, "x") @ all_up).tolist() == [2 ** (n - j)]
    flip_all = np.eye(reg.dim)
    for j in range(1, n + 1):
        flip_all = embed_single_spin(reg, j, "x") @ flip_all
    assert np.flatnonzero(flip_all @ all_up).tolist() == [reg.dim - 1]


def test_embed_raising_operator_action():
    op = embed_single_spin(SpinRegister(2), 1, "+")
    down_up = np.array([0, 0, 1, 0], dtype=complex)  # |down,up>
    up_up = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(op @ down_up, up_up)
    assert np.allclose(op @ up_up, 0.0)
    assert np.allclose(op @ np.array([0, 1, 0, 0], dtype=complex), 0.0)  # |up,down>


def test_embed_index_out_of_range():
    with pytest.raises(IndexError):
        embed_single_spin(SpinRegister(2), 3, "z")
    with pytest.raises(IndexError):
        embed_single_spin(SpinRegister(2), 0, "x")


def test_collective_jz_two_spins():
    assert np.allclose(collective_operator(SpinRegister(2), "z"), np.diag([1.0, 0.0, 0.0, -1.0]))


def test_collective_j2_two_spins():
    vals = np.linalg.eigvalsh(collective_operator(SpinRegister(2), "J2"))
    assert np.allclose(sorted(vals), [0.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_collective_jz_maximal_weight():
    jz = collective_operator(SpinRegister(3), "z")
    up3 = np.zeros(8, dtype=complex)
    up3[0] = 1.0
    assert np.allclose(jz @ up3, 1.5 * up3)


@pytest.mark.parametrize("n", range(1, 7))
def test_angular_momentum_commutators(n):
    reg = SpinRegister(n)
    jx, jy, jz = (collective_operator(reg, w) for w in "xyz")
    jp, jm = collective_operator(reg, "+"), collective_operator(reg, "-")
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) <= 1e-12
    assert np.max(np.abs(jp @ jm - jm @ jp - 2.0 * jz)) <= 1e-12
    assert np.max(np.abs(jz @ jp - jp @ jz - jp)) <= 1e-12
    assert np.max(np.abs(jz @ jm - jm @ jz + jm)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_j2_commutes_and_spectrum(n):
    reg = SpinRegister(n)
    j2 = collective_operator(reg, "J2")
    for w in "xyz":
        op = collective_operator(reg, w)
        assert np.max(np.abs(j2 @ op - op @ j2)) <= 1e-12
    vals = np.linalg.eigvalsh(j2)
    jmax = n / 2.0
    allowed = {j * (j + 1.0) for j in np.arange(jmax, -0.1, -1.0) if j >= 0}
    assert np.max(vals) == pytest.approx(jmax * (jmax + 1.0), abs=1e-10)
    for v in vals:
        assert any(abs(v - a) < 1e-9 for a in allowed)


def _swap_unitary(n, i, j):
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        bits[i], bits[j] = bits[j], bits[i]
        u[sum(b << (n - 1 - k) for k, b in enumerate(bits)), idx] = 1.0
    return u


@pytest.mark.parametrize("n", [2, 3, 4])
def test_collective_operators_permutation_invariant(n):
    reg = SpinRegister(n)
    for which in ("x", "y", "z", "+", "-", "J2"):
        op = collective_operator(reg, which)
        for i, j in itertools.combinations(range(n), 2):
            u = _swap_unitary(n, i, j)
            assert np.max(np.abs(u.conj().T @ op @ u - op)) <= 1e-12


def test_y_transform_single_spin():
    u = y_basis_transform(SpinRegister(1))
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert np.allclose(u @ np.array([1.0, 0.0]), plus_y)
    assert np.allclose(u.conj().T @ SIGMA_Y @ u, np.diag([1.0, -1.0]))
    assert np.allclose(u.conj().T @ u, np.eye(2))


def test_y_transform_diagonalizes_collective_jy():
    # brute-force conjugation of the 4x4 J_y
    reg = SpinRegister(2)
    u = y_basis_transform(reg)
    jy = 0.5 * (np.kron(SIGMA_Y, np.eye(2)) + np.kron(np.eye(2), SIGMA_Y))
    assert np.allclose(u.conj().T @ jy @ u, np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-12)


def test_spin_flip_parity_flips_y_product_states():
    reg = SpinRegister(2)
    u = y_basis_transform(reg)
    parity = spin_flip_parity(reg)
    plus_plus = u @ np.array([1, 0, 0, 0], dtype=complex)
    minus_minus = u @ np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(parity @ plus_plus, minus_minus)


def test_boson_operator_examples():
    assert np.array_equal(boson_operator(FockSpace(2), "a"), np.array([[0, 1], [0, 0]]))
    assert np.allclose(boson_operator(FockSpace(4), "n"), np.diag([0.0, 1.0, 2.0, 3.0]))


def test_boson_commutator_truncation_edge():
    f = FockSpace(4)
    a = boson_operator(f, "a")
    adag = boson_operator(f, "adag")
    comm = a @ adag - adag @ a
    expected = np.diag([1.0, 1.0, 1.0, -3.0])
    assert np.allclose(comm, expected, atol=1e-12)


def test_fock_space_requires_cutoff_two():
    with pytest.raises(ValueError):
        FockSpace(1)


def test_register_bounds():
    with pytest.raises(ValueError):
        SpinRegister(0)
    with pytest.raises(ValueError):
        SpinRegister(11)


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_j_operators_are_the_collective_operators_on_the_dicke_states(n):
    m, raising = spin_j_operators(n)
    reg = SpinRegister(n)
    d = symmetric_sector_isometry(n)
    np.testing.assert_array_equal(m, n / 2.0 - np.arange(n + 1))
    np.testing.assert_allclose(d.T @ collective_operator(reg, "z") @ d, np.diag(m), atol=1e-13)
    np.testing.assert_allclose(d.T @ collective_operator(reg, "+") @ d, raising, atol=1e-13)
