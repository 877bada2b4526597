import dataclasses

import numpy as np
import pytest

from lmg_adiabat import dynamics
from lmg_adiabat.dynamics import (
    DriveSchedule,
    LindbladSpec,
    adiabaticity_profile,
    calibrated_schedule,
    dephasing_mask,
    evolve,
    evolve_batch,
    evolve_state,
    lindblad_rhs,
    literal_schedule,
    spectral_gap,
)
from lmg_adiabat.errors import (
    DimensionMismatchError,
    InvalidInitialStateError,
    StepFailureError,
)
from lmg_adiabat.model import effective_coefficients, lmg_sweep_hamiltonian
from lmg_adiabat.operators import SIGMA_X, SIGMA_Z, SpinRegister
from lmg_adiabat.protocols import preset
from lmg_adiabat.states import density_from_state

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_schedule_shape_and_limits():
    s = DriveSchedule(zeta=0.3, ramp1=2000.0, ramp2=1500.0)
    t = np.linspace(-20000.0, 20000.0, 101)
    assert np.all(s.omega1(t) >= 0.0)
    assert s.omega1(0.0) == pytest.approx(0.3)
    assert s.omega1(1e9) == pytest.approx(0.6)
    assert s.omega2(1e9) == pytest.approx(0.6)
    disp = s.with_dispersion(0.015, -0.015)
    assert disp.omega1(1e9) == pytest.approx(2.0 * 0.315)
    assert disp.omega2(1e9) == pytest.approx(2.0 * 0.285)


def test_literal_schedule_form():
    s = literal_schedule()
    t = np.array([0.0, 500.0, 4000.0])
    assert np.allclose(s.omega1(t), 0.3 * (1.0 + np.tanh(t / 2000.0)))
    assert np.allclose(s.omega2(t), 0.3 * (1.0 + np.tanh(t / 1500.0)))


def test_calibrated_schedule_realizes_single_drive_start():
    s = calibrated_schedule(t_final=4000.0)
    assert s.omega1(0.0) == pytest.approx(0.6, rel=1e-4)
    assert s.omega2(0.0) < 3e-4
    assert s.omega2(4000.0) == pytest.approx(0.6, rel=1e-3)


def test_lindblad_rhs_closed_system():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    rho = np.eye(4, dtype=complex) / 4.0 + 0.01 * (h - np.trace(h) * np.eye(4) / 4.0)
    rhs = lindblad_rhs(rho, h, [0.0, 0.0])
    assert np.allclose(rhs, -1j * (h @ rho - rho @ h))


def test_lindblad_rhs_single_qubit_dephasing_rate():
    gamma = 3e-4
    rho = density_from_state(PLUS_X)
    rhs = lindblad_rhs(rho, np.zeros((2, 2), dtype=complex), [gamma])
    # off-diagonal decays at 2*gamma, populations fixed
    assert rhs[0, 1] == pytest.approx(-2.0 * gamma * rho[0, 1])
    assert rhs[0, 0] == pytest.approx(0.0, abs=1e-18)
    assert abs(np.trace(rhs)) <= 1e-12
    assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-12


def test_lindblad_rhs_diagonal_fixed_point():
    h = np.diag([0.3, -0.1, 0.2, 0.5]).astype(complex)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rhs = lindblad_rhs(rho, h, [1e-3, 2e-3])
    assert np.max(np.abs(rhs)) <= 1e-15


def test_lindblad_rhs_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        lindblad_rhs(np.eye(4, dtype=complex) / 4.0, np.eye(2, dtype=complex), [0.1])


def test_dephasing_mask_matches_operator_form():
    from lmg_adiabat.operators import embed_single_spin

    gammas = (1e-4, 3e-4, 7e-5)
    reg = SpinRegister(3)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    w = dephasing_mask(gammas)
    direct = np.zeros_like(rho)
    for j, g in enumerate(gammas, start=1):
        z = embed_single_spin(reg, j, "z")
        direct += g * (z @ rho @ z - rho)
    assert np.allclose(w * rho, direct, atol=1e-14)


def test_evolve_constant_state():
    rho0 = density_from_state(PLUS_X)
    res = evolve(
        LindbladSpec(np.zeros((2, 2), dtype=complex), (0.0,)),
        rho0,
        (0.0, 50.0),
        n_samples=6,
        record_gap=False,
    )
    for rho in res.rho_samples:
        assert np.allclose(rho, rho0, atol=1e-13)


def test_evolve_single_qubit_dephasing_closed_form():
    gamma = 1e-4
    res = evolve(
        LindbladSpec(np.zeros((2, 2), dtype=complex), (gamma,)),
        density_from_state(PLUS_X),
        (0.0, 3000.0),
        n_samples=31,
        record_gap=False,
    )
    coh = res.rho_samples[:, 0, 1].real
    assert np.max(np.abs(coh - 0.5 * np.exp(-2.0 * gamma * res.times))) <= 1e-8
    expected_purity = 0.5 * (1.0 + np.exp(-4.0 * gamma * res.times))
    assert np.max(np.abs(res.purity - expected_purity)) <= 1e-8


def test_evolve_larmor_precession():
    omega = 0.8
    res = evolve(
        LindbladSpec(0.5 * omega * SIGMA_Z, (0.0,)),
        density_from_state(PLUS_X),
        (0.0, 40.0),
        n_samples=41,
        step=0.02,
        observables={"sx": SIGMA_X},
        record_gap=False,
    )
    assert np.max(np.abs(res.expectations["sx"] - np.cos(omega * res.times))) <= 1e-7


def test_evolve_purity_monotone_under_dephasing():
    h = np.diag([0.4, 0.1, -0.2, -0.3]).astype(complex)  # commutes with sigma_z^j
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    res = evolve(
        LindbladSpec(h, (2e-4, 1e-4)),
        density_from_state(psi),
        (0.0, 2000.0),
        n_samples=51,
        record_gap=False,
    )
    assert np.all(np.diff(res.purity) <= 1e-12)


def test_evolve_invariants_on_sweep():
    cfg = preset("I", 3, t_final=400.0, n_samples=41)
    reg = SpinRegister(3)
    ham = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1, cfg.schedule.omega2)
    res = evolve(
        LindbladSpec(ham, (1e-4, 1e-4, 1e-4)),
        density_from_state(cfg.initial_state()),
        (0.0, 400.0),
        n_samples=41,
    )
    assert np.all(np.diff(res.times) > 0)
    assert np.max(res.trace_defect) <= 1e-8
    assert np.max(res.hermiticity_defect) <= 1e-9
    rng = np.random.default_rng(1)
    for k in rng.integers(0, res.times.size, size=10):
        assert np.linalg.eigvalsh(res.rho_samples[k])[0] >= -1e-7
    assert res.gap is not None and np.all(res.gap > 0)


def test_dephased_lmg_run_is_exactly_hermitian():
    # each stage is -i (y - y^H) + W o x, so no step can leave the Hermitian matrices
    cfg = preset("I", 3, t_final=200.0, n_samples=21)
    ham = lmg_sweep_hamiltonian(SpinRegister(3), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    res = evolve(LindbladSpec(ham, (1e-3, 2e-3, 1e-3)), density_from_state(cfg.initial_state()),
                 (0.0, 200.0), n_samples=21, record_gap=False)
    assert np.all(res.hermiticity_defect == 0.0)
    np.testing.assert_array_equal(res.rho_samples, res.rho_samples.conj().transpose(0, 2, 1))


def test_population_excursion_reports_the_unclipped_value():
    # <v|rho|v> = 2 for v = sqrt(2) |up>: reported clipped to 1, its excursion is 1
    spec = LindbladSpec(np.diag([0.3, -0.3]).astype(complex), (0.0,))
    up = np.array([1.0, 0.0], dtype=complex)
    res = evolve(spec, density_from_state(up), (0.0, 10.0), n_samples=5,
                 populations={"up": up, "double": np.sqrt(2.0) * up}, record_gap=False)
    assert np.all(res.populations["double"] == 1.0)
    assert res.population_excursion == pytest.approx(1.0, abs=1e-12)
    assert res.diagnostics == {
        "n_steps": 40,
        "max_trace_defect": float(np.max(res.trace_defect)),
        "max_hermiticity_defect": 0.0,
        "population_excursion": res.population_excursion,
    }


def test_evolve_rejects_bad_initial_state():
    with pytest.raises(InvalidInitialStateError):
        evolve(
            LindbladSpec(np.zeros((2, 2), dtype=complex), (0.0,)),
            1.5 * density_from_state(PLUS_X),
            (0.0, 1.0),
        )


def test_evolve_step_failure_on_unstable_step():
    # an absurdly large step makes RK4 unstable; the trace check must trip
    h = SIGMA_X + 0.7 * SIGMA_Z
    with np.errstate(all="ignore"), pytest.raises(StepFailureError):
        evolve(
            LindbladSpec(h, (0.2,)),
            density_from_state(PLUS_X),
            (0.0, 4000.0),
            step=8.0,
            n_samples=40,
            record_gap=False,
        )


def test_block_size_does_not_change_the_result(monkeypatch):
    cfg = preset("I", 2, t_final=60.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(2), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, (1e-3, 2e-3))
    rho0 = density_from_state(cfg.initial_state())
    kwargs = dict(n_samples=13, populations={"start": cfg.initial_state()}, record_gap=False)
    # 246 steps of a step that is not a binary fraction: one block, then six
    # blocks of 41 steps that end on every other sample
    whole = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", 41)
    blocked = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    for name in ("purity", "trace_defect", "hermiticity_defect", "rho_samples", "rho_final"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)
    np.testing.assert_array_equal(blocked.populations["start"], whole.populations["start"])


def test_step_failure_stops_the_run_at_the_failing_block(monkeypatch, lindblad_calls):
    # the second member blows up at the oversized step, the first stays stable;
    # the run must stop after the first block instead of finishing the window
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", 20)
    h = SIGMA_X + 0.7 * SIGMA_Z
    rho0 = density_from_state(PLUS_X)
    failure = pytest.raises(StepFailureError, match="member 1: .* at t = 104 ")
    with np.errstate(all="ignore"), failure:
        evolve_batch(
            [LindbladSpec(0.01 * h, (0.0,)), LindbladSpec(h, (0.0,))],
            [rho0, rho0],
            (0.0, 4000.0),
            step=8.0,
            n_samples=40,
            record_gap=False,
        )
    assert len(lindblad_calls) == 1  # of the 25 blocks in the 500-step window


def test_callable_hamiltonian_is_rejected():
    cfg = preset("I", 2, t_final=60.0, n_samples=7)
    reg = SpinRegister(2)
    ham = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1, cfg.schedule.omega2)
    assert LindbladSpec(ham, (1e-4, 1e-4)).hamiltonian is ham
    with pytest.raises(TypeError, match="LinearHamiltonian or a constant matrix"):
        LindbladSpec(ham.matrix, (1e-4, 1e-4))
    with pytest.raises(TypeError):
        LindbladSpec(lambda t: np.zeros((4, 4), dtype=complex), (1e-4, 1e-4))


def test_evolve_state_unitary_norm():
    cfg = preset("I", 2, t_final=100.0)
    reg = SpinRegister(2)
    ham = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1, cfg.schedule.omega2)
    times, psis, psi_final = evolve_state(
        ham, cfg.initial_state(), (0.0, 100.0), n_samples=11, step=0.02
    )
    norms = np.linalg.norm(psis, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_symmetric_sector_equivalence(n):
    from lmg_adiabat.model import LinearHamiltonian
    from lmg_adiabat.states import symmetric_sector_isometry, target_state

    cfg = preset("I", n)
    reg = SpinRegister(n)
    ham = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1, cfg.schedule.omega2)
    v = symmetric_sector_isometry(n)
    ham_sector = LinearHamiltonian(
        terms=np.ascontiguousarray(np.einsum("ia,kij,jb->kab", v.conj(), ham.terms, v)),
        coefficients=ham.coefficients,
    )
    psi0 = cfg.initial_state()
    tgt = target_state("I", n)
    kwargs = dict(n_samples=9, record_gap=False, store_states=False)
    full = evolve(LindbladSpec(ham, ()), density_from_state(psi0), (0.0, cfg.t_final),
                  populations={"t": tgt}, **kwargs)
    sect = evolve(LindbladSpec(ham_sector, ()), density_from_state(v.conj().T @ psi0),
                  (0.0, cfg.t_final), populations={"t": v.conj().T @ tgt}, **kwargs)
    assert np.max(np.abs(full.populations["t"] - sect.populations["t"])) <= 1e-8


def test_step_halving_convergence_case_one():
    from lmg_adiabat.protocols import run_scenario

    cfg = preset("I", 3)
    r1 = run_scenario(cfg, record_gap=False)
    r2 = run_scenario(dataclasses.replace(cfg, step=0.125), record_gap=False)
    assert abs(r1.final_population - r2.final_population) <= 1e-6
    assert abs(r1.final_population_phase_opt - r2.final_population_phase_opt) <= 1e-6


def test_adiabaticity_profile_constant_schedule():
    sched = DriveSchedule(zeta=0.3, ramp1=np.inf, ramp2=np.inf, dzeta2=-0.3)
    times = np.linspace(0.0, 100.0, 5)
    prof = adiabaticity_profile(sched, 0.1, -1.1, 3, times)
    assert np.allclose(prof.gaps, prof.gaps[0])
    assert np.allclose(prof.omega2, 0.0)
    assert prof.margin == pytest.approx(100.0 * prof.min_gap)


def test_adiabaticity_profile_case_one_gap_positive_and_final_value():
    cfg = preset("I", 4)
    times = np.linspace(0.0, 4000.0, 81)
    prof = adiabaticity_profile(cfg.schedule, cfg.eta, cfg.delta, 4, times)
    assert np.all(prof.gaps > 0.0)
    # final gap from the one-axis m^2 spectrum: |alpha| beta2^2 (2J - 1)
    c = effective_coefficients(cfg.eta, cfg.delta, float(cfg.schedule.omega1(4000.0)),
                               float(cfg.schedule.omega2(4000.0)))
    expected = abs(c.alpha) * c.beta2**2 * 3.0
    assert prof.gaps[-1] == pytest.approx(expected, rel=5e-3)


def test_spectral_gap_band_semantics():
    h = np.diag([0.0, 1e-9, 0.5, 1.0]).astype(complex)
    assert spectral_gap(h, degeneracy_tol=1e-6) == pytest.approx(0.5)
    assert spectral_gap(h, degeneracy_tol=1e-12) == pytest.approx(1e-9)
    # a stack applies the band rule to each matrix; a fully degenerate band has gap 0
    stack = np.stack([h, np.diag([0.0, 0.2, 0.2, 0.9]).astype(complex), np.eye(4, dtype=complex)])
    gaps = spectral_gap(stack)
    assert gaps.shape == (3,)
    assert [spectral_gap(m) for m in stack] == list(gaps) == [0.5, 0.2, 0.0]
