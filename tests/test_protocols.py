import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from lmg_adiabat import _kernels, dynamics, protocols
from lmg_adiabat.errors import (
    CutoffTooSmallError,
    ParityMismatchError,
    RegimeWarning,
    ValidationError,
)
from lmg_adiabat.model import DisorderProfile
from lmg_adiabat.protocols import (
    _spin_readout,
    REFERENCE_DISORDER_PROFILES,
    REFERENCE_DISPERSION_PAIRS,
    ScenarioConfig,
    disorder_ensemble,
    dispersion_ensemble,
    reference_disorder_profiles,
    preset,
    preset_delta,
    run_scenario,
    run_scenarios,
    validate_effective_reduction,
)
from lmg_adiabat.operators import SpinRegister, collective_operator
from lmg_adiabat.states import density_from_state, dicke_state, population, target_state
from oracles import register_reduction, spin_flip_parity


def test_config_parity_rules():
    with pytest.raises(ParityMismatchError):
        ScenarioConfig(case="II", n_spins=4)
    with pytest.raises(ParityMismatchError):
        ScenarioConfig(case="III", n_spins=3)


def test_config_validation_lists_all_problems():
    with pytest.raises(ValidationError) as err:
        ScenarioConfig(case="I", n_spins=4, t_final=-1.0, n_samples=1, step=0.0)
    msg = str(err.value)
    assert "t_final" in msg and "n_samples" in msg and "step" in msg


def test_config_rejects_non_finite_values():
    with pytest.raises(ValidationError, match="step must be finite"):
        ScenarioConfig(step=float("nan"))


@pytest.mark.parametrize("name", ["n_spins", "n_samples"])
def test_config_rejects_non_integer_counts(name):
    for value in (4.5, "4", None):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            ScenarioConfig(**{name: value})
    value = getattr(ScenarioConfig(**{name: 4.0}), name)
    assert value == 4 and type(value) is int


def test_config_rejects_a_schedule_or_disorder_of_another_type():
    with pytest.raises(ValidationError, match="schedule must be a DriveSchedule"):
        ScenarioConfig(schedule="literal")
    with pytest.raises(ValidationError, match="disorder must be None or a DisorderProfile"):
        ScenarioConfig(disorder=[0.1, 0, 0, 0])


def test_config_gamma_list_length():
    with pytest.raises(ValidationError):
        ScenarioConfig(case="I", n_spins=4, gamma_dep=(1e-4, 1e-4))
    cfg = ScenarioConfig(case="I", n_spins=4, gamma_dep=1e-4)
    assert cfg.gammas() == (1e-4,) * 4


def test_preset_delta_sign_rule():
    assert preset_delta("I", 1.1) == -1.1
    assert preset_delta("II", 1.1) == 1.1
    assert preset_delta("III", 1.1) == 1.1
    assert preset_delta("I", 0.9) == 0.9
    assert preset_delta("II", 0.9) == -0.9


@pytest.mark.parametrize(
    "case,n,mag,expected_m",
    [("I", 4, 1.1, 2.0), ("II", 3, 1.1, -1.5), ("III", 4, 1.1, -2.0),
     ("I", 4, 0.9, -2.0), ("II", 3, 0.9, 1.5)],
)
def test_initial_state_is_isotropic_ground(case, n, mag, expected_m):
    cfg = preset(case, n, detuning_magnitude=mag)
    regime = cfg.regime_at(0.0)
    assert regime.form == "isotropic"
    assert regime.prediction.weights == (expected_m,)
    psi = cfg.initial_state()
    overlap = abs(dicke_state(n, expected_m, "z").conj() @ psi) ** 2
    assert overlap >= 1.0 - 1e-12


def test_literal_schedule_falls_back_to_declared_state():
    cfg = preset("I", 4, schedule="literal")
    psi = cfg.initial_state()
    assert abs(dicke_state(4, 2.0, "z").conj() @ psi) ** 2 >= 1.0 - 1e-12


def test_run_scenario_series_and_drive_columns():
    cfg = preset("I", 3, t_final=300.0, n_samples=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        run = run_scenario(cfg)
    assert run.times.size == 16
    assert set(run.trajectory.populations) >= {"target", "branch_plus", "branch_minus"}
    assert np.allclose(run.omega1, cfg.schedule.omega1(run.times))
    assert np.allclose(run.omega2, cfg.schedule.omega2(run.times))
    assert 0.0 <= run.final_population <= 1.0
    assert run.pop_target_phase_opt[0] >= run.pop_target[0] - 1e-12


def test_run_scenario_warns_when_sweep_is_cut_short():
    cfg = preset("I", 3, t_final=300.0, n_samples=8)
    with pytest.warns(RegimeWarning):
        run_scenario(cfg)


def test_run_scenario_no_warning_on_full_sweep():
    cfg = preset("III", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        run = run_scenario(cfg)
    assert run.final_population_phase_opt > 0.99


def test_below_resonance_presets_transfer():
    # the case II/III parameter sets at |delta| = 0.9 are supported presets;
    # their sign rule keeps the final interaction antiferromagnetic, so the
    # W-type transfer still completes
    for case, n in (("II", 3), ("III", 4)):
        cfg = preset(case, n, detuning_magnitude=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            run = run_scenario(cfg)
        assert run.final_population_phase_opt >= 0.98


def test_reference_disorder_profiles_table():
    profiles = reference_disorder_profiles(0.1)
    assert len(profiles) == 12
    assert profiles[0].fractions == (-0.05, 0.05, 0.04, 0.05)
    assert profiles[7].fractions == (-0.12, -0.15, 0.2, -0.1)
    assert profiles[10].label == "disorder-(d)-2"
    assert REFERENCE_DISORDER_PROFILES[10][1] == (-0.1, -0.2, 0.3, 0.15)


def test_disorder_zero_profile_reproduces_baseline():
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=600.0, n_samples=31)
    zero = DisorderProfile(fractions=(0.0,) * 4, eta=cfg.eta, label="zero")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        rep = disorder_ensemble(cfg, [zero])
    assert rep.members[0].final_population == pytest.approx(
        rep.baseline.final_population, abs=1e-12
    )


def test_disorder_ensemble_parallel_consistency(monkeypatch):
    # the gap scan beside the integration (two usable CPUs) and the serial
    # scan of a one-CPU process report the same ensemble
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=400.0, n_samples=21)
    profiles = reference_disorder_profiles(cfg.eta)[:3]
    monkeypatch.setattr(_kernels, "GAP_OVERLAP_BYTES", 0)  # a scan this short would stay serial
    reports = []
    for cpus in (2, 1):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            reports.append(disorder_ensemble(cfg, profiles))
    beside, serial = reports
    # every reported field of every member, baseline included, is equal
    assert len(beside.members) == len(serial.members) == 3
    for a, b in zip([beside.baseline, *beside.members], [serial.baseline, *serial.members]):
        assert a.min_gap > 0
        assert asdict(a) == asdict(b)


def test_dispersion_zero_pair_is_identical():
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=400.0, n_samples=21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        rep = dispersion_ensemble(cfg, [(0.0, 0.0)])
    assert rep.members[0].final_population == rep.baseline.final_population


def test_dispersion_zero_pair_is_not_integrated(lindblad_calls):
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=40.0, n_samples=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        rep = dispersion_ensemble(cfg, REFERENCE_DISPERSION_PAIRS)
    # six members, the (0, 0) pair repeating the baseline: five are integrated
    assert len(rep.members) == 5
    assert [shape[1] for shape in lindblad_calls] == [5]
    assert rep.members[0].final_population == rep.baseline.final_population


def _assert_members_match_standalone(rep, cfgs):
    for member, cfg in zip([rep.baseline, *rep.members], cfgs):
        alone = run_scenario(cfg, store_states=False)
        assert member.final_population == alone.final_population
        assert member.final_population_phase_opt == alone.final_population_phase_opt
        assert member.min_gap == alone.min_gap
        assert member.max_trace_defect == alone.max_trace_defect


def test_batched_ensemble_members_match_standalone_runs():
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=300.0, n_samples=16, gamma=1e-4)
    profiles = reference_disorder_profiles(cfg.eta)[::4]
    pairs = [(0.015, 0.015), (-0.015, 0.015)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        _assert_members_match_standalone(
            disorder_ensemble(cfg, profiles),
            [cfg] + [replace(cfg, disorder=p) for p in profiles],
        )
        _assert_members_match_standalone(
            dispersion_ensemble(cfg, pairs),
            [cfg] + [replace(cfg, schedule=cfg.schedule.with_dispersion(*p)) for p in pairs],
        )


@pytest.mark.parametrize("gamma", [0.0, 1e-4])
def test_criterion_8_members_match_standalone_runs_over_the_whole_window(gamma):
    # over 4000/nu the 13-member batch takes eight calls of 500 steps and
    # each run alone one call of 4000
    cfg = preset("I", 4, detuning_magnitude=0.9, gamma=gamma)
    profiles = reference_disorder_profiles(cfg.eta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        _assert_members_match_standalone(
            disorder_ensemble(cfg, profiles),
            [cfg] + [replace(cfg, disorder=p) for p in profiles],
        )


def test_run_scenarios_rejects_unshared_settings():
    cfg = preset("I", 4, t_final=40.0, n_samples=5)
    with pytest.raises(ValidationError, match="n_spins"):
        run_scenarios([cfg, preset("I", 3, t_final=40.0, n_samples=5)])
    with pytest.raises(ValidationError, match="gammas"):
        run_scenarios([cfg, preset("I", 4, t_final=40.0, n_samples=5, gamma=1e-4)])


def test_dispersion_offsets_bounded():
    cfg = preset("I", 4)
    with pytest.raises(ValidationError):
        dispersion_ensemble(cfg, [(0.2, 0.0)])  # > 0.5 * zeta


def test_dispersion_pairs_table():
    assert REFERENCE_DISPERSION_PAIRS[0] == (0.0, 0.0)
    assert REFERENCE_DISPERSION_PAIRS[-1] == (0.1, -0.1)


def test_validate_reduction_no_drive_is_exact():
    cfg = ScenarioConfig(case="I", n_spins=2, lambda_over_nu=0.1, delta=-1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        rep = validate_effective_reduction(cfg, fock_cutoff=3, omega1=0.0, omega2=0.0,
                                           t_final=40.0, n_samples=9)
    assert rep.max_jz_deviation <= 1e-12
    assert rep.max_population_deviation <= 1e-12


def test_validate_reduction_zero_coupling_bounded():
    cfg = ScenarioConfig(case="I", n_spins=2, lambda_over_nu=0.0, delta=-1.1)
    rep = validate_effective_reduction(cfg, fock_cutoff=3, t_final=100.0, n_samples=26)
    # deviation from the dropped fast-rotating drive terms only
    assert 0.0 < rep.max_jz_deviation < 1.0
    assert rep.cutoff_change <= 1e-12


@pytest.mark.filterwarnings("ignore:.*expansion regime")
def test_single_tone_reduction_runs_no_time_steps(schrodinger_calls):
    rep = validate_effective_reduction(preset("I", 2), fock_cutoff=6)
    assert schrodinger_calls == []
    assert rep.solver == "rotating-frame"
    assert rep.norm_drift <= 1e-12


@pytest.mark.filterwarnings("ignore:.*expansion regime")
def test_two_tone_reduction_integrates_only_the_full_runs(schrodinger_calls):
    cfg = ScenarioConfig(case="I", n_spins=2, lambda_over_nu=0.1, delta=-1.1)
    rep = validate_effective_reduction(cfg, fock_cutoff=6, omega1=0.15, omega2=0.15,
                                       t_final=100.0, n_samples=51)
    assert schrodinger_calls == [18, 36]
    assert rep.solver == "rk4"


@pytest.mark.filterwarnings("ignore:.*expansion regime")
@pytest.mark.parametrize("case,n,cutoff,omega1,omega2,t_final,n_samples", [
    ("I", 1, 6, 0.3, 0.0, 500.0, 251),
    ("I", 2, 6, 0.3, 0.0, 500.0, 251),
    ("III", 2, 5, 0.3, 0.0, 500.0, 251),
    ("I", 2, 4, 0.0, 0.3, 300.0, 101),
    ("I", 2, 6, 0.15, 0.15, 100.0, 51),
], ids=["I-1", "I-2", "III-2", "omega2", "two-tones"])
def test_reduction_matches_the_register_oracle(case, n, cutoff, omega1, omega2, t_final,
                                                n_samples):
    cfg = preset(case, n)
    rep = validate_effective_reduction(cfg, fock_cutoff=cutoff, omega1=omega1, omega2=omega2,
                                       t_final=t_final, n_samples=n_samples)
    oracle = register_reduction(cfg, cutoff, omega1, omega2, t_final, n_samples)
    np.testing.assert_array_equal(rep.times, oracle.pop("times"))
    for name, expected in oracle.items():
        np.testing.assert_allclose(getattr(rep, name), expected, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_spin_readout_matches_the_partial_trace():
    rng = np.random.default_rng(7)
    psis = rng.normal(size=(5, 4 * 3)) + 1j * rng.normal(size=(5, 4 * 3))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    target = target_state("I", 2)
    psis[0] = 1.2 * np.kron(target, [1.0, 0.0, 0.0])  # population 1.44, clamped to 1
    jz = collective_operator(SpinRegister(2), "z")
    jz_joint = np.kron(jz, np.eye(3))
    amps = psis.reshape(5, 4, 3)
    jz_read, pop_read = _spin_readout(amps, jz.diagonal().real, target)
    jz_loop = [np.real(psi.conj() @ jz_joint @ psi) for psi in psis]
    pop_loop = [population(a @ a.conj().T, target) for a in amps]
    np.testing.assert_allclose(jz_read, jz_loop, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pop_read, pop_loop, rtol=0, atol=1e-12)
    # a single mode is the pure spin state
    _, pop_pure = _spin_readout(amps[:, :, :1], jz.diagonal().real, target)
    pure = [population(density_from_state(a[:, 0]), target) for a in amps]
    np.testing.assert_allclose(pop_pure, pure, rtol=0, atol=1e-12)


def test_validate_reduction_rejects_large_registers():
    with pytest.raises(ValidationError):
        validate_effective_reduction(preset("I", 3), fock_cutoff=4)


def test_validate_reduction_cutoff_error():
    cfg = ScenarioConfig(case="I", n_spins=1, lambda_over_nu=0.5, delta=-1.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CutoffTooSmallError):
            validate_effective_reduction(cfg, fock_cutoff=3, omega1=0.6,
                                         t_final=200.0, n_samples=41)


def test_validate_reduction_lamb_dicke_warning():
    cfg = ScenarioConfig(case="I", n_spins=1, lambda_over_nu=0.1, delta=-1.1, nbar=20.0)
    with pytest.warns(RegimeWarning, match="expansion regime"):
        validate_effective_reduction(cfg, fock_cutoff=3, omega1=0.1, t_final=20.0, n_samples=6)


@pytest.mark.parametrize("case,n", [("I", 4), ("II", 3), ("III", 4)])
@pytest.mark.parametrize("gamma", [0, "1.0kHz"])
def test_simulate_presets_keep_trace_and_hermiticity_to_rounding(case, n, gamma):
    # the six simulate jobs of the benchmark: the fused sample intervals and
    # the prefix products over them keep every sampled state's trace to
    # rounding and exactly Hermitian
    cfg = protocols.config_from_settings({"case": case, "n_spins": n, "gamma_dep": gamma})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        diagnostics = run_scenario(cfg).trajectory.diagnostics
    assert diagnostics["max_trace_defect"] <= 1e-13
    assert diagnostics["max_hermiticity_defect"] <= 1e-13


@pytest.mark.parametrize("n,literal", [(2, 0.0), (3, 0.5), (4, 1.0), (5, 0.5), (6, 0.0)])
def test_case_one_literal_population_is_capped_by_spin_flip_parity(n, literal):
    # The sweep conserves prod_j sigma_z^j and starts at parity +1, so it
    # reaches at most (1 + <P>)/2 of the target, whose GHZ phase e^{i pi J}
    # gives <P> = +1 only when N is a multiple of 4.
    target = target_state("I", n)
    parity = spin_flip_parity(SpinRegister(n))
    cfg = preset("I", n)
    psi0 = cfg.initial_state()
    assert np.real(psi0.conj() @ parity @ psi0) == pytest.approx(1.0, abs=1e-12)
    assert (1.0 + np.real(target.conj() @ parity @ target)) / 2.0 == pytest.approx(
        literal, abs=1e-12)
    run = run_scenario(cfg)
    assert run.final_population == pytest.approx(literal, abs=1e-4)
    assert run.final_population_phase_opt >= 0.9999
