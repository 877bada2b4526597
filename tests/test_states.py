import itertools

import numpy as np
import pytest

from lmg_adiabat.errors import (
    DimensionMismatchError,
    InvalidInitialStateError,
    InvalidWeightError,
    ParityMismatchError,
)
from lmg_adiabat.model import effective_coefficients, build_effective_lmg
from lmg_adiabat.operators import SIGMA_X, SIGMA_Y, SpinRegister, collective_operator
from lmg_adiabat.states import (
    check_density_matrix,
    density_from_state,
    dicke_state,
    population,
    target_branches,
    target_state,
)
from oracles import (
    ground_space,
    phase_optimized_population,
    spin_flip_parity,
    symmetric_sector_isometry,
)


def y_string(n, signs):
    """Product state |s1 s2 ...>_y assembled directly from single-spin kets."""
    single = {
        "+": np.array([1.0, 1.0j]) / np.sqrt(2.0),
        "-": np.array([1.0, -1.0j]) / np.sqrt(2.0),
    }
    out = np.array([1.0], dtype=complex)
    for s in signs:
        out = np.kron(out, single[s])
    return out


def test_dicke_maximal_weight_is_product():
    v = dicke_state(2, 1.0, "z")
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(v, expected)


def test_dicke_symmetric_combination():
    v = dicke_state(2, 0.0, "z")
    expected = np.zeros(4)
    expected[1] = expected[2] = 1.0 / np.sqrt(2.0)
    assert np.allclose(v, expected)


def test_dicke_y_three_spins_expansion():
    # |m_y = 1/2> = (|+-+>_y + |-++>_y + |++->_y)/sqrt(3)
    v = dicke_state(3, 0.5, "y")
    expected = (y_string(3, "+-+") + y_string(3, "-++") + y_string(3, "++-")) / np.sqrt(3.0)
    assert np.allclose(v, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dicke_states_orthonormal_and_jz_eigen(n):
    jz = collective_operator(SpinRegister(n), "z")
    jy = collective_operator(SpinRegister(n), "y")
    ms = [n / 2.0 - k for k in range(n + 1)]
    for basis, op in (("z", jz), ("y", jy)):
        vecs = [dicke_state(n, m, basis) for m in ms]
        gram = np.array([[v.conj() @ w for w in vecs] for v in vecs])
        assert np.allclose(gram, np.eye(n + 1), atol=1e-12)
        for m, v in zip(ms, vecs):
            assert np.linalg.norm(op @ v - m * v) <= 1e-12


def test_dicke_invalid_weight():
    with pytest.raises(InvalidWeightError):
        dicke_state(2, 2.0)
    with pytest.raises(InvalidWeightError):
        dicke_state(2, 0.5)


def test_target_case_one_four_spins():
    v = target_state("I", 4)
    expected = (y_string(4, "++++") + y_string(4, "----")) / np.sqrt(2.0)
    assert np.allclose(v, expected, atol=1e-12)


def test_target_case_three_four_spins():
    v = target_state("III", 4)
    strings = set(itertools.permutations("++--"))
    expected = sum(y_string(4, s) for s in strings) / np.sqrt(6.0)
    assert np.allclose(v, expected, atol=1e-12)


def test_target_case_two_three_spins():
    v = target_state("II", 3)
    expected = (dicke_state(3, 0.5, "y") + 1j * dicke_state(3, -0.5, "y")) / np.sqrt(2.0)
    assert np.allclose(v, expected, atol=1e-12)


def test_basis_transforms_are_built_once_per_register_size(monkeypatch):
    from lmg_adiabat import operators

    operators.x_basis_transform.cache_clear()
    operators.y_basis_transform.cache_clear()
    builds = []
    kron_all = operators._kron_all

    def counting(factors):
        factors = list(factors)
        builds.append(len(factors))
        return kron_all(factors)

    monkeypatch.setattr(operators, "_kron_all", counting)
    first = target_state("I", 4)
    for _ in range(3):
        np.testing.assert_array_equal(target_state("I", 4), first)
        target_branches("I", 4)
        dicke_state(4, 1.0, "x")
    assert builds == [4, 4]  # one y and one x transform of four factors
    target_state("III", 6)
    assert builds == [4, 4, 6]
    u = operators.y_basis_transform(SpinRegister(4))
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_target_parity_requirements():
    with pytest.raises(ParityMismatchError):
        target_state("II", 4)
    with pytest.raises(ParityMismatchError):
        target_state("III", 3)


@pytest.mark.parametrize("case,n", [("I", 2), ("I", 3), ("I", 4), ("I", 5),
                                    ("II", 3), ("II", 5), ("III", 2), ("III", 4)])
def test_targets_are_ground_eigenvectors_of_final_hamiltonian(case, n):
    reg = SpinRegister(n)
    alpha_sign = -1.1 if case == "I" else 1.1  # FI for GHZ, AFI for W
    c = effective_coefficients(0.1, alpha_sign, 0.3, 0.3)
    h = build_effective_lmg(reg, c)
    v = target_state(case, n)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    e0 = np.linalg.eigvalsh(h)[0]
    assert np.linalg.norm(h @ v - e0 * v) <= 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_case_one_target_parity_eigenvector_even_n(n):
    # the y-basis product-flip operator distinguishes the two FI branches
    parity = spin_flip_parity(SpinRegister(n))
    v = target_state("I", n)
    expected_sign = np.real(np.exp(1j * np.pi * n / 2.0))
    assert np.allclose(parity @ v, expected_sign * v, atol=1e-12)


def test_ground_space_one_axis_afi():
    # the m^2 spectrum statement is about the symmetric sector: the full space
    # shares the AFI ground level with lower-J multiplets
    reg = SpinRegister(4)
    c = effective_coefficients(0.1, 1.1, 0.3, 0.3)  # alpha > 0
    v = symmetric_sector_isometry(4)
    h = v.conj().T @ build_effective_lmg(reg, c) @ v
    gs = ground_space(h, degeneracy_tol=1e-9)
    assert gs.degeneracy == 1
    assert gs.gap == pytest.approx(c.alpha * c.beta2**2, rel=1e-9)
    overlap = np.abs((v.conj().T @ dicke_state(4, 0.0, "y")).conj() @ gs.vectors[:, 0]) ** 2
    assert overlap >= 1.0 - 1e-9


def test_ground_space_one_axis_fi_doublet():
    reg = SpinRegister(2)
    c = effective_coefficients(0.1, -1.1, 0.3, 0.3)  # alpha < 0
    h = build_effective_lmg(reg, c)
    gs = ground_space(h, degeneracy_tol=1e-9)
    assert gs.degeneracy == 2
    assert gs.gap == pytest.approx(abs(c.alpha) * c.beta2**2, rel=1e-9)
    proj = gs.projector()
    for m in (1.0, -1.0):
        v = dicke_state(2, m, "y")
        assert np.real(v.conj() @ proj @ v) >= 1.0 - 1e-9


def test_ground_space_takes_the_band_of_spectral_gap():
    from lmg_adiabat.dynamics import spectral_gap

    # a doublet split by 1e-4 of the spread is one band, one split by 1e-2 is not
    for split, degeneracy in ((1e-4, 2), (1e-2, 1)):
        h = np.diag([0.0, split, 0.5, 1.0]).astype(complex)
        gs = ground_space(h)
        assert gs.degeneracy == degeneracy
        assert gs.gap == spectral_gap(h)


def test_ground_space_sigma_z():
    gs = ground_space(np.diag([1.0, -1.0]).astype(complex), degeneracy_tol=1e-12)
    assert gs.energy == pytest.approx(-1.0)
    assert gs.gap == pytest.approx(2.0)
    assert np.abs(gs.vectors[1, 0]) == pytest.approx(1.0)


def test_eig_pauli_x():
    gs = ground_space(SIGMA_X)
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
    jy = 0.5 * (np.kron(SIGMA_Y, np.eye(2)) + np.kron(np.eye(2), SIGMA_Y))
    v = symmetric_sector_isometry(2)
    block = v.conj().T @ (jy @ jy) @ v
    gs = ground_space(block)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert gs.degeneracy == 1
    assert gs.gap == pytest.approx(1.0)
    m0_y = v.conj().T @ dicke_state(2, 0.0, "y")
    assert np.abs(m0_y.conj() @ gs.vectors[:, 0]) == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [5, 17, 64, 256])
def test_ground_space_of_a_random_hermitian_matrix(dim):
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    # a threefold ground level listed after random higher levels
    levels = np.concatenate([rng.uniform(0.5, 2.0, size=dim - 3), [-1.0] * 3])
    h = q @ np.diag(levels) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    gs = ground_space(h, degeneracy_tol=1e-9)
    assert gs.degeneracy == 3
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert gs.gap == pytest.approx(np.min(levels[:-3]) + 1.0, abs=1e-12)
    v = gs.vectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(gs.degeneracy)) <= 1e-12
    assert np.linalg.norm(h @ v + v) <= 1e-12 * dim


def test_population_examples():
    psi = dicke_state(2, 1.0, "z")
    rho = density_from_state(psi)
    assert population(rho, psi) == pytest.approx(1.0)
    assert population(np.eye(4, dtype=complex) / 4.0, psi) == pytest.approx(0.25)
    ghz_z = np.zeros(4, dtype=complex)
    ghz_z[0] = ghz_z[3] = 1.0 / np.sqrt(2.0)
    assert population(rho, ghz_z) == pytest.approx(0.5)


def test_population_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        population(np.eye(4, dtype=complex) / 4.0, np.array([1.0, 0.0]))


def test_population_basis_invariant():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        p1 = population(rho, psi)
        p2 = population(q @ rho @ q.conj().T, q @ psi)
        assert abs(p1 - p2) <= 1e-12


def test_phase_optimized_population():
    a, b = target_branches("I", 3)
    # a state sitting in the branch span with an arbitrary relative phase
    psi = (a + np.exp(0.7j) * b) / np.sqrt(2.0)
    rho = density_from_state(psi)
    assert phase_optimized_population(rho, a, b) == pytest.approx(1.0, abs=1e-12)
    literal = population(rho, target_state("I", 3))
    assert literal < 0.999  # the literal value depends on the phase
    assert phase_optimized_population(rho, a, None) == pytest.approx(population(rho, a))


def test_symmetric_sector_isometry_properties():
    v = symmetric_sector_isometry(4)
    assert v.shape == (16, 5)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    jz = collective_operator(SpinRegister(4), "z")
    block = v.conj().T @ jz @ v
    assert np.allclose(block, np.diag([2.0, 1.0, 0.0, -1.0, -2.0]), atol=1e-12)


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidInitialStateError):
        check_density_matrix(2.0 * np.eye(2, dtype=complex))
    with pytest.raises(InvalidInitialStateError):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidInitialStateError):
        check_density_matrix(bad)
