import numpy as np
import pytest

from lmg_adiabat.errors import DimensionMismatchError, ResonantDetuningError
from lmg_adiabat.model import (
    DisorderProfile,
    FullModelParams,
    build_disorder_term,
    build_effective_lmg,
    classify_lmg,
    effective_coefficients,
    full_interaction_frame,
    full_interaction_hamiltonian,
    isotropic_spectrum,
    lmg_sweep_hamiltonian,
)
from lmg_adiabat.operators import SpinRegister, collective_operator
from oracles import symmetric_sector_isometry


def test_coefficients_case_one_values():
    # direct arithmetic: alpha = 2*0.01*(-1.1)/(1.21-1), epsilon = 2/(alpha*delta)
    c = effective_coefficients(0.1, -1.1, 0.3, 0.0)
    assert c.alpha == pytest.approx(-0.022 / 0.21, abs=1e-12)
    assert c.alpha == pytest.approx(-0.1047619, abs=5e-8)
    assert c.epsilon == pytest.approx(2.0 / ((-0.022 / 0.21) * -1.1), abs=1e-10)
    assert c.epsilon == pytest.approx(17.3554, abs=5e-5)
    assert c.beta1 == 0.3 and c.beta2 == 0.3


def test_coefficients_below_resonance_values():
    c = effective_coefficients(0.1, 0.9, 0.3, 0.0)
    assert c.alpha == pytest.approx(0.018 / -0.19, abs=1e-12)
    assert c.alpha == pytest.approx(-0.0947368, abs=5e-8)
    assert c.epsilon == pytest.approx(-23.4568, abs=5e-5)


def test_coefficients_zero_coupling():
    c = effective_coefficients(0.0, 1.3, 0.2, 0.1)
    assert c.alpha == 0.0
    assert c.jz_coefficient == 0.0


def test_resonant_detuning_rejected():
    with pytest.raises(ResonantDetuningError):
        effective_coefficients(0.1, 1.0, 0.3, 0.0)
    with pytest.raises(ResonantDetuningError):
        effective_coefficients(0.1, -1.0 + 1e-12, 0.3, 0.0)


def test_sign_coherence_over_grid():
    for delta in (-2.0, -1.3, -0.7, -0.2, 0.2, 0.7, 1.3, 2.0):
        for eta in (0.05, 0.1, 0.3):
            c = effective_coefficients(eta, delta, 0.3, 0.1)
            assert np.sign(c.alpha) == np.sign(delta * (delta**2 - 1.0))


def test_effective_lmg_one_axis_y_limit():
    reg = SpinRegister(3)
    c = effective_coefficients(0.1, -1.1, 0.4, 0.4)  # omega1 == omega2
    h = build_effective_lmg(reg, c)
    jy = collective_operator(reg, "y")
    assert np.max(np.abs(h - c.alpha * c.beta2**2 * (jy @ jy))) <= 1e-12


def test_effective_lmg_isotropic_spectrum_two_spins():
    # brute-force eigendecomposition vs the closed form on the triplet sector,
    # plus the singlet eigenvalue 0
    c = effective_coefficients(0.1, -1.1, 0.3, 0.0)
    h = build_effective_lmg(SpinRegister(2), c)
    ab2 = c.alpha * 0.3**2
    expected = sorted([ab2 * (c.epsilon * m - m**2 + 2.0) for m in (-1, 0, 1)] + [0.0])
    assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_effective_lmg_zero_alpha_is_zero_matrix():
    c = effective_coefficients(0.0, -1.1, 0.3, 0.1)
    h = build_effective_lmg(SpinRegister(2), c)
    assert np.max(np.abs(h)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_effective_lmg_hermitian_and_conserves_j2(n):
    reg = SpinRegister(n)
    j2 = collective_operator(reg, "J2")
    for delta, om1, om2 in ((-1.1, 0.3, 0.0), (1.1, 0.5, 0.5), (0.9, 0.3, -0.3), (1.7, 0.4, 0.2)):
        h = build_effective_lmg(reg, effective_coefficients(0.1, delta, om1, om2))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert np.max(np.abs(h @ j2 - j2 @ h)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_isotropic_oracle_maximal_sector(n):
    rng = np.random.default_rng(100 + n)
    reg = SpinRegister(n)
    v = symmetric_sector_isometry(n)
    for _ in range(5):
        om1 = rng.uniform(0.1, 0.6)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 2.0)
        c = effective_coefficients(0.1, delta, om1, 0.0)
        h = build_effective_lmg(reg, c)
        sector = np.linalg.eigvalsh(v.conj().T @ h @ v)
        expected = sorted(e for _, e in isotropic_spectrum(n, c.alpha * om1**2, c.epsilon))
        assert np.allclose(sector, expected, atol=1e-10)


def test_isotropic_spectrum_examples():
    assert isotropic_spectrum(2, 1.0, 3.0) == [(-1.0, -2.0), (0.0, 2.0), (1.0, 4.0)]
    spec = isotropic_spectrum(5, 2.0, 0.0)
    energies = dict(spec)
    for m, _ in spec:
        assert energies[m] == pytest.approx(energies[-m])
    spec4 = isotropic_spectrum(4, -1.0, 17.36)
    m_min = min(spec4, key=lambda p: p[1])[0]
    assert m_min == 2.0


def test_disorder_term_zero_profile():
    reg = SpinRegister(3)
    d = DisorderProfile(fractions=(0.0, 0.0, 0.0), eta=0.1)
    assert np.max(np.abs(build_disorder_term(reg, d))) == 0.0


def test_disorder_term_single_spin():
    d = DisorderProfile(fractions=(0.2,), eta=0.1)
    m1 = 0.2 * 0.1**2 / 4.0
    h = build_disorder_term(SpinRegister(1), d)
    assert np.allclose(h, -0.5 * m1 * np.eye(2), atol=1e-15)


def test_disorder_term_two_spins_brute_force():
    # explicit 4x4 assembly: -sum_j M_j sigma_z^j J_z in the z product basis
    eta = 0.1
    fractions = (0.1, -0.1)
    d = DisorderProfile(fractions=fractions, eta=eta)
    h = build_disorder_term(SpinRegister(2), d)
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    jz = 0.5 * (np.kron(sz, eye) + np.kron(eye, sz))
    expected = np.zeros((4, 4))
    for frac, op in zip(fractions, (np.kron(sz, eye), np.kron(eye, sz))):
        expected -= (eta * (frac * eta) / 4.0) * op @ jz
    assert np.allclose(h, expected, atol=1e-15)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0  # diagonal in z basis


def test_cached_operator_products_are_shared_and_read_only():
    from lmg_adiabat import model
    from lmg_adiabat.operators import embed_single_spin

    reg = SpinRegister(3)
    jz, jx2, jy2 = model._collective_products(3)
    assert model._collective_products(3)[0] is jz
    jx, jy = collective_operator(reg, "x"), collective_operator(reg, "y")
    np.testing.assert_array_equal(jz, collective_operator(reg, "z"))
    np.testing.assert_array_equal(jx2, jx @ jx)
    np.testing.assert_array_equal(jy2, jy @ jy)
    ising = model._ising_diagonals(3)
    for m in (jz, jx2, jy2, ising):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    # each sweep Hamiltonian gets its own writable copy of the terms
    ham = lmg_sweep_hamiltonian(reg, 0.1, -1.1, np.ones_like, np.zeros_like)
    assert ham.terms.flags.writeable and not np.shares_memory(ham.terms, jz)
    # the disorder term from the cached diagonals is the one built from the operators
    profile = DisorderProfile(fractions=(0.1, -0.05, 0.2), eta=0.1)
    expected = np.zeros((8, 8), dtype=complex)
    for j, m_j in enumerate(profile.ising_coefficients(), start=1):
        expected -= m_j * (embed_single_spin(reg, j, "z") @ jz)
    np.testing.assert_array_equal(build_disorder_term(reg, profile), expected)


def test_disorder_profile_validation():
    with pytest.raises(ValueError):
        DisorderProfile(fractions=(0.6,), eta=0.1)
    with pytest.raises(DimensionMismatchError):
        build_disorder_term(SpinRegister(2), DisorderProfile(fractions=(0.1,), eta=0.1))


def test_full_hamiltonian_no_drive_is_zero():
    p = FullModelParams(n_spins=1, fock_cutoff=3, eta=0.1, delta=-1.1, omega1=0.0, omega2=0.0)
    assert np.max(np.abs(full_interaction_hamiltonian(p).matrix(0.7))) == 0.0


def test_full_hamiltonian_zero_coupling_form():
    p = FullModelParams(n_spins=2, fock_cutoff=3, eta=0.0, delta=-1.1, omega1=0.3, omega2=0.0)
    reg = SpinRegister(2)
    jp = collective_operator(reg, "+")
    for t in (0.0, 1.3, 7.9):
        drive = 0.3 * np.exp(1j * -1.1 * t)
        expected = np.kron(drive * jp + np.conj(drive) * jp.conj().T, np.eye(3))
        assert np.allclose(full_interaction_hamiltonian(p).matrix(t), expected, atol=1e-12)


def test_full_hamiltonian_single_spin_hand_assembly():
    # term-by-term 6x6 assembly at t = 0
    eta, delta, om1 = 0.1, -1.1, 0.3
    p = FullModelParams(n_spins=1, fock_cutoff=3, eta=eta, delta=delta, omega1=om1, omega2=0.0)
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    a = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    block = np.eye(3) + eta * (a.conj().T - a)
    half = om1 * np.kron(sp, block)  # all drive phases are 1 at t = 0
    expected = half + half.conj().T
    assert np.allclose(full_interaction_hamiltonian(p).matrix(0.0), expected, atol=1e-14)


def test_full_hamiltonian_hermitian_at_sampled_times():
    p = FullModelParams(n_spins=2, fock_cutoff=4, eta=0.1, delta=-1.1, omega1=0.3, omega2=0.2)
    ham = full_interaction_hamiltonian(p)
    for t in np.linspace(0.0, 25.0, 11):
        h = ham.matrix(t)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_full_params_cutoff_guard_and_indicator():
    with pytest.raises(ValueError):
        FullModelParams(n_spins=1, fock_cutoff=2, eta=0.1, delta=-1.1, omega1=0.3, omega2=0.0)
    p = FullModelParams(n_spins=1, fock_cutoff=3, eta=0.1, delta=-1.1, omega1=0.3, omega2=0.0)
    assert p.lamb_dicke_indicator == pytest.approx(21.0 * 0.01)


def test_sweep_hamiltonian_matches_pointwise_build():
    reg = SpinRegister(3)
    sched_om1 = lambda ts: 0.3 * (1.0 + np.tanh(np.asarray(ts) / 500.0))
    sched_om2 = lambda ts: 0.25 * (1.0 + np.tanh((np.asarray(ts) - 100.0) / 300.0))
    ham = lmg_sweep_hamiltonian(reg, 0.1, -1.1, sched_om1, sched_om2)
    for t in (0.0, 120.0, 900.0):
        c = effective_coefficients(0.1, -1.1, float(sched_om1(t)), float(sched_om2(t)))
        assert np.allclose(ham.matrix(t), build_effective_lmg(reg, c), atol=1e-13)


def test_classify_isotropic_fi_unique_ground():
    c = effective_coefficients(0.1, -1.1, 0.3, 0.0)  # alpha < 0, epsilon > N
    regime = classify_lmg(c, 4)
    assert regime.form == "isotropic" and regime.magnetism == "FI"
    assert regime.prediction.basis == "z"
    assert regime.prediction.weights == (2.0,)


def test_classify_one_axis_y_afi_odd_pair():
    c = effective_coefficients(0.1, 1.1, 0.3, 0.3)  # alpha > 0, omega1 == omega2
    regime = classify_lmg(c, 3)
    assert regime.form == "one-axis-y" and regime.magnetism == "AFI"
    assert regime.prediction.weights == (0.5, -0.5)


def test_classify_one_axis_y_fi_degenerate_pair():
    c = effective_coefficients(0.1, -1.1, 0.3, 0.3)  # alpha < 0
    regime = classify_lmg(c, 4)
    assert regime.form == "one-axis-y" and regime.magnetism == "FI"
    assert regime.prediction.weights == (2.0, -2.0)


def test_classify_one_axis_x():
    c = effective_coefficients(0.1, -1.1, 0.3, -0.3)
    regime = classify_lmg(c, 4)
    assert regime.form == "one-axis-x"
    assert regime.prediction.basis == "x"


def test_classify_outside_table():
    c = effective_coefficients(0.1, -1.1, 0.3, 0.1)
    assert classify_lmg(c, 4).form == "general"
    c_small_eps = effective_coefficients(0.4, -1.05, 0.3, 0.0)
    regime = classify_lmg(c_small_eps, 10)
    assert regime.form == "isotropic" and regime.prediction is None


@pytest.mark.parametrize("t", [0.3, 7.1, 123.4])
def test_single_tone_hamiltonian_is_a_rotated_constant(single_tone_params, t):
    ham = full_interaction_hamiltonian(single_tone_params)
    k = full_interaction_frame(single_tone_params)
    rotated = np.exp(1.0j * np.subtract.outer(k, k) * t) * ham.matrix(0.0)
    np.testing.assert_allclose(ham.matrix(t), rotated, rtol=0, atol=1e-12)


def test_two_tones_have_no_rotating_frame():
    p = FullModelParams(n_spins=2, fock_cutoff=4, eta=0.1, delta=-1.1, omega1=0.15, omega2=0.15)
    assert full_interaction_frame(p) is None
