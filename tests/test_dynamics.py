import dataclasses
import threading
import time

import numpy as np
import pytest

from lmg_adiabat import _kernels, dynamics
from lmg_adiabat.dynamics import (
    DriveSchedule,
    LindbladSpec,
    calibrated_schedule,
    dephasing_mask,
    evolve,
    evolve_batch,
    evolve_state,
    rotating_frame_states,
    spectral_gap,
)
from lmg_adiabat.errors import (
    DimensionMismatchError,
    InvalidInitialStateError,
    StepFailureError,
)
from lmg_adiabat.model import (
    LinearHamiltonian,
    build_effective_lmg,
    effective_coefficients,
    full_interaction_frame,
    full_interaction_hamiltonian,
    lmg_sweep_hamiltonian,
)
from lmg_adiabat.operators import SIGMA_X, SIGMA_Z, SpinRegister
from lmg_adiabat.protocols import preset
from lmg_adiabat.states import density_from_state, dicke_state

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
    s = DriveSchedule()
    t = np.array([0.0, 500.0, 4000.0])
    assert np.allclose(s.omega1(t), 0.3 * (1.0 + np.tanh(t / 2000.0)))
    assert np.allclose(s.omega2(t), 0.3 * (1.0 + np.tanh(t / 1500.0)))


def test_calibrated_schedule_realizes_single_drive_start():
    s = calibrated_schedule(t_final=4000.0)
    assert s.omega1(0.0) == pytest.approx(0.6, rel=1e-4)
    assert s.omega2(0.0) < 3e-4
    assert s.omega2(4000.0) == pytest.approx(0.6, rel=1e-3)


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
    )
    coh = res.rho_samples[:, 0, 1].real
    assert np.max(np.abs(coh - 0.5 * np.exp(-2.0 * gamma * res.times))) <= 1e-8
    expected_purity = 0.5 * (1.0 + np.exp(-4.0 * gamma * res.times))
    assert np.max(np.abs(res.purity - expected_purity)) <= 1e-8


def test_evolve_larmor_precession():
    omega = 0.8
    up, down = np.eye(2, dtype=complex)
    res = evolve(
        LindbladSpec(0.5 * omega * SIGMA_Z, (0.0,)),
        density_from_state(PLUS_X),
        (0.0, 40.0),
        n_samples=41,
        step=0.02,
        bilinears={"coh": (up, down)},
    )
    # <sigma_x> = 2 Re <up|rho|down>
    sx = 2.0 * res.bilinears["coh"].real
    assert np.max(np.abs(sx - np.cos(omega * res.times))) <= 1e-7


def test_evolve_purity_monotone_under_dephasing():
    h = np.diag([0.4, 0.1, -0.2, -0.3]).astype(complex)  # commutes with sigma_z^j
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    res = evolve(
        LindbladSpec(h, (2e-4, 1e-4)),
        density_from_state(psi),
        (0.0, 2000.0),
        n_samples=51,
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
    # each step takes the Hermitian part y + y^H and then scales it by the real
    # symmetric E / 2, so no step can leave the Hermitian matrices
    cfg = preset("I", 3, t_final=200.0, n_samples=21)
    ham = lmg_sweep_hamiltonian(SpinRegister(3), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    res = evolve(LindbladSpec(ham, (1e-3, 2e-3, 1e-3)), density_from_state(cfg.initial_state()),
                 (0.0, 200.0), n_samples=21)
    assert np.all(res.hermiticity_defect == 0.0)
    np.testing.assert_array_equal(res.rho_samples, res.rho_samples.conj().transpose(0, 2, 1))


def test_population_excursion_reports_the_unclipped_value():
    # <v|rho|v> = 2 for v = sqrt(2) |up>: reported clipped to 1, its excursion is 1
    spec = LindbladSpec(np.diag([0.3, -0.3]).astype(complex), (0.0,))
    up = np.array([1.0, 0.0], dtype=complex)
    res = evolve(spec, density_from_state(up), (0.0, 10.0), n_samples=5,
                 populations={"up": up, "double": np.sqrt(2.0) * up})
    assert np.all(res.populations["double"] == 1.0)
    assert res.population_excursion == pytest.approx(1.0, abs=1e-12)
    # a 1x1 block's eigenvalue is its entry: the smallest one is taken inside
    # the block (about 1), not over the zeros outside it
    inside = float(np.min(res.rho_samples[:, 0, 0].real))
    assert inside > 0.5
    assert res.diagnostics == {
        "n_steps": 10,
        "integrated_dim": 1,  # |up> under a diagonal H reaches nothing else
        "integrated_basis": "basis states",
        "max_trace_defect": float(np.max(res.trace_defect)),
        "max_hermiticity_defect": 0.0,
        "population_excursion": res.population_excursion,
        "min_eigenvalue": inside,
    }


def _full_space(terms, rho0s):
    return np.arange(terms.shape[1])


def _force_full_space(monkeypatch):
    """Integrate on the whole space: no reachable block, no (operator) subspace."""
    monkeypatch.setattr(dynamics, "_reachable_indices", _full_space)
    monkeypatch.setattr(dynamics, "_invariant_subspace", lambda terms, rho0s, limit: None)
    monkeypatch.setattr(dynamics, "_operator_subspace", lambda terms, w, rho0s, limit: None)


def _assert_runs_agree(got, want):
    pairs = [(got.populations[k], want.populations[k]) for k in want.populations]
    pairs += [(got.bilinears[k], want.bilinears[k]) for k in want.bilinears]
    pairs += [(getattr(got, name), getattr(want, name))
              for name in ("purity", "trace_defect", "rho_samples", "rho_final")]
    for a, b in pairs:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


#: (integrated_dim, integrated_basis) of the case I runs below at gamma 0.  The
#: clean runs stay in the span of the Dicke states m = -N/2, -N/2 + 2, ...;
#: non-uniform disorder keeps that span only at N = 4 (it is 0 on m = 0 and a
#: scalar on m = +-2), and elsewhere the closure is no smaller than the block.
GAMMA0_BASIS = {
    (2, False): (2, "basis states"), (2, True): (2, "basis states"),
    (3, False): (2, "subspace"), (3, True): (4, "basis states"),
    (4, False): (3, "subspace"), (4, True): (3, "subspace"),
    (5, False): (3, "subspace"), (5, True): (16, "basis states"),
    (6, False): (4, "subspace"), (6, True): (32, "basis states"),
}
#: The same at 1 kHz.  The clean runs reach 5, 11, 14 and 24 dimensions of
#: Hermitian operators on the parity block at N = 3 to 6; the disordered runs
#: keep that space only at N = 4, and elsewhere their closure passes
#: ``_operator_limit``, as every closure at N = 2 does (it fills all 4).
GAMMA1KHZ_BASIS = {
    (2, False): (2, "basis states"), (2, True): (2, "basis states"),
    (3, False): (5, "operator subspace"), (3, True): (4, "basis states"),
    (4, False): (11, "operator subspace"), (4, True): (11, "operator subspace"),
    (5, False): (14, "operator subspace"), (5, True): (16, "basis states"),
    (6, False): (24, "operator subspace"), (6, True): (32, "basis states"),
}


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("disordered", [False, True], ids=["clean", "disorder"])
@pytest.mark.parametrize("gamma", [0.0, 1e-4], ids=["gamma0", "gamma1kHz"])
def test_parity_block_matches_full_space(monkeypatch, n, disordered, gamma):
    from lmg_adiabat.model import DisorderProfile
    from lmg_adiabat.protocols import run_scenario

    cfg = preset("I", n, gamma=gamma, t_final=200.0, n_samples=11)
    if disordered:
        fractions = np.linspace(-0.1, 0.1, n)
        cfg = dataclasses.replace(cfg, disorder=DisorderProfile(tuple(fractions), cfg.eta))
    reduced = run_scenario(cfg).trajectory
    _force_full_space(monkeypatch)
    full = run_scenario(cfg).trajectory
    expected = (GAMMA0_BASIS if gamma == 0 else GAMMA1KHZ_BASIS)[n, disordered]
    assert (reduced.integrated_dim, reduced.integrated_basis) == expected
    assert (full.integrated_dim, full.integrated_basis) == (2**n, "basis states")
    assert full.bilinears  # case I tracks the branch cross term
    _assert_runs_agree(reduced, full)


def _criterion_8_configs(**kwargs):
    from lmg_adiabat.protocols import reference_disorder_profiles

    cfg = preset("I", 4, detuning_magnitude=0.9, **kwargs)
    return [cfg] + [dataclasses.replace(cfg, disorder=p)
                    for p in reference_disorder_profiles(cfg.eta)]


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_criterion_8_batch_runs_on_its_subspace(monkeypatch):
    from lmg_adiabat.protocols import run_scenarios

    cfgs = _criterion_8_configs(t_final=400.0, n_samples=21)
    reduced = [run.trajectory for run in run_scenarios(cfgs)]
    _force_full_space(monkeypatch)
    full = [run.trajectory for run in run_scenarios(cfgs)]
    assert len(reduced) == 13
    for got, want in zip(reduced, full):
        assert (got.integrated_dim, got.integrated_basis) == (3, "subspace")
        _assert_runs_agree(got, want)


def test_invariant_subspace_is_real_orthonormal_and_reproducible():
    cfgs = _criterion_8_configs()
    reg = SpinRegister(4)
    hams = [lmg_sweep_hamiltonian(reg, c.eta, c.delta, c.schedule.omega1, c.schedule.omega2,
                                  c.disorder) for c in cfgs]
    terms, _ = dynamics._term_union(hams)
    rho0s = np.stack([density_from_state(c.initial_state()) for c in cfgs])
    # the 13 equal initial states span one direction
    columns = np.concatenate(list(rho0s.real), axis=1)
    assert dynamics._extend_basis(np.zeros((16, 0)), columns).shape == (16, 1)
    q = dynamics._invariant_subspace(terms, rho0s, limit=8)
    assert q.dtype == np.float64 and q.shape == (16, 3)
    np.testing.assert_allclose(q.T @ q, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(dynamics._invariant_subspace(terms, rho0s, limit=8), q)
    # a closure that reaches the limit is not used
    assert dynamics._invariant_subspace(terms, rho0s, limit=3) is None


def _selection_batch(complex_terms):
    """(terms, mask, initial states, tracked vectors) of a dephased batch.

    The criterion-8 batch has real terms; the three-spin batch adds the
    complex, parity-conserving term (J_x J_y + J_y J_x) / 2.  Both start in
    one parity block.
    """
    from lmg_adiabat.operators import collective_operator
    from lmg_adiabat.states import target_state

    if not complex_terms:
        cfgs = _criterion_8_configs(gamma=1e-4)
        reg = SpinRegister(4)
        hams = [lmg_sweep_hamiltonian(reg, c.eta, c.delta, c.schedule.omega1,
                                      c.schedule.omega2, c.disorder) for c in cfgs]
        terms, _ = dynamics._term_union(hams)
        rho0s = np.stack([density_from_state(c.initial_state()) for c in cfgs])
        return (terms, dephasing_mask(cfgs[0].gammas()), rho0s,
                np.stack([target_state("I", 4), dicke_state(4, 1.0, "y")]))
    reg = SpinRegister(3)
    jx, jy, jz = (collective_operator(reg, axis) for axis in "xyz")
    terms = np.stack([jz, jx @ jx, dynamics._hermitian_part(jx @ jy)])
    rho0s = np.stack([density_from_state(dicke_state(3, m, "z")) for m in (1.5, -0.5)])
    return (terms, dephasing_mask((1e-4, 2e-4, 0.0)), rho0s,
            np.stack([dicke_state(3, 0.5, "y"), dicke_state(3, 1.5, "x")]))


@pytest.mark.parametrize("complex_terms", [False, True], ids=["criterion-8", "complex"])
def test_selection_basis_picks_the_entries_of_its_block(complex_terms):
    # why merging the block of basis states into the subspace class moves no
    # output: Q^H X Q and f conj(Q) for a 0/1 selection Q are its entries.
    # The real batch runs on an operator space of that block, the complex
    # one on the block itself.
    terms, w, rho0s, forms = _selection_batch(complex_terms)
    keep = dynamics._reachable_indices(terms, rho0s)
    (basis,) = dynamics._integration_plans(terms, [range(len(terms))] * len(rho0s), w, rho0s)
    kind = "basis states" if complex_terms else "operator subspace"
    assert (basis.kind, basis.q.shape[1]) == (kind, terms.shape[1] // 2)
    got = basis.restrict(terms, w, rho0s, forms, forms.conj())
    inside = (Ellipsis, keep[:, None], keep)
    want = (terms[inside], w[inside], rho0s[inside], forms[:, keep], forms.conj()[:, keep])
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(3)
    k = basis.q.shape[1]
    x = dynamics._hermitian_part(rng.normal(size=(5, k, k)) + 1j * rng.normal(size=(5, k, k)))
    full = basis.embed(x)
    outside = np.ones(full.shape[1:], dtype=bool)
    outside[keep[:, None], keep] = False
    assert np.all(full[:, outside] == 0)
    np.testing.assert_array_equal(full[inside], x)


def _tiny_coupling_spec(epsilon):
    """Two spins under J_x^2 + J_x, the J_x term of norm ``epsilon``, without dephasing.

    From |up up> J_x^2 alone reaches |down down>; the J_x term adds the
    symmetric m = 0 state, so the closure has dimension 3 against the 4
    basis states that the nonzero pattern connects.
    """
    jx = 0.5 * (np.kron(SIGMA_X, np.eye(2)) + np.kron(np.eye(2), SIGMA_X))
    ham = LinearHamiltonian(terms=np.stack([jx @ jx, epsilon * jx / np.abs(jx).max()]),
                            coefficients=lambda ts: np.ones((np.size(ts), 2)))
    return LindbladSpec(ham, (0.0, 0.0))


def test_tiny_term_is_kept_in_the_subspace(monkeypatch):
    # the J_x term moves rho by about 1e-9 over the window: cutting it as
    # rounding would show far above the 1e-12 tolerance
    spec = _tiny_coupling_spec(1e-11)
    up, _, _, down = np.eye(4, dtype=complex)
    args = (spec, density_from_state(up), (0.0, 100.0))
    kwargs = dict(n_samples=11, populations={"up": up, "down": down})
    got = evolve(*args, **kwargs)
    assert (got.integrated_dim, got.integrated_basis) == (3, "subspace")
    without = evolve(_tiny_coupling_spec(0.0), *args[1:], **kwargs)
    assert np.max(np.abs(got.rho_final - without.rho_final)) > 1e-10
    _force_full_space(monkeypatch)
    _assert_runs_agree(got, evolve(*args, **kwargs))


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_closure_that_misses_a_direction_falls_back_to_the_block(monkeypatch):
    from lmg_adiabat.protocols import run_scenario

    cfg = preset("I", 4, t_final=200.0, n_samples=11)
    # a rank tolerance this coarse drops the m = 0 direction: the check that
    # every term maps the basis into itself fails, and the parity block is used
    monkeypatch.setattr(dynamics, "_RANK_TOL", 0.9)
    got = run_scenario(cfg).trajectory
    assert (got.integrated_dim, got.integrated_basis) == (8, "basis states")
    _force_full_space(monkeypatch)
    _assert_runs_agree(got, run_scenario(cfg).trajectory)


def _scan(ham, times):
    """The gap scan of ``ham`` at ``times``, on the blocks ``evolve_batch`` would search."""
    return dynamics._gap_scan(ham, times, dynamics._gap_blocks(ham.terms))


def test_gap_row_bits_do_not_depend_on_the_rows_built_with_it():
    # from N = 7 a one-row build product, as a matrix-vector product, rounded differently
    cfg = preset("I", 7)
    ham = lmg_sweep_hamiltonian(SpinRegister(7), cfg.eta, cfg.delta, cfg.schedule.omega1,
                                cfg.schedule.omega2)
    times = np.linspace(0.0, cfg.t_final, 13)
    together = _scan(ham, times)
    alone = [_scan(ham, times[i:i + 1])[0] for i in range(times.size)]
    assert np.array_equal(alone, together)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("disordered", [False, True], ids=["clean", "disorder"])
def test_block_gap_scan_matches_the_full_spectrum(n, disordered):
    from lmg_adiabat.model import DisorderProfile

    cfg = preset("I", n)  # ferromagnetic: a near-degenerate ground doublet at the end
    disorder = (DisorderProfile(tuple(np.linspace(-0.2, 0.3, n)), cfg.eta)
                if disordered else None)
    ham = lmg_sweep_hamiltonian(SpinRegister(n), cfg.eta, cfg.delta, cfg.schedule.omega1,
                                cfg.schedule.omega2, disorder)
    times = np.linspace(0.0, cfg.t_final, 9)
    full = np.einsum("tk,kij->tij", ham.coefficient_table(times), ham.terms)
    np.testing.assert_allclose(_scan(ham, times), spectral_gap(full),
                               rtol=0, atol=1e-12)
    if n >= 2 and not disordered:
        # the band rule sees the doublet: its splitting is below the band and the gap above it
        vals = np.linalg.eigvalsh(full[-1])
        assert vals[1] - vals[0] < 1e-3 * (vals[-1] - vals[0]) < vals[2] - vals[0]


def _case_hamiltonian(case, n, disorder=None):
    cfg = preset(case, n)
    return cfg, lmg_sweep_hamiltonian(SpinRegister(n), cfg.eta, cfg.delta, cfg.schedule.omega1,
                                      cfg.schedule.omega2, disorder)


@pytest.mark.parametrize("case,n", [(case, n) for case, parity in (("I", None), ("II", 1), ("III", 0))
                                    for n in range(2, 9) if parity in (None, n % 2)])
def test_total_spin_gap_scan_matches_the_parity_scan(monkeypatch, case, n):
    # a symmetric LMG Hamiltonian is scanned on the parity halves of its
    # spin-j irreps, N + 1 dimensions for j = N / 2, and gives the gaps of
    # the two 2^(N-1) parity blocks
    cfg, ham = _case_hamiltonian(case, n)
    blocks = dynamics._gap_blocks(ham.terms)
    assert sum(g.shape[1] * g.shape[2] for g in blocks) == sum(
        two_j + 1 for two_j in range(n, -1, -2))
    assert max(g.shape[2] for g in blocks) == n // 2 + 1
    times = np.linspace(0.0, cfg.t_final, 41)
    spin = _scan(ham, times)
    monkeypatch.setattr(dynamics, "_is_symmetric_lmg", lambda terms: False)
    assert [g.shape[2] for g in dynamics._gap_blocks(ham.terms)] == [2 ** (n - 1)]
    np.testing.assert_allclose(spin, _scan(ham, times), rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
@pytest.mark.parametrize("gamma", [0.0, 1e-4], ids=["gamma-0", "1kHz"])
def test_a_run_records_the_total_spin_scan(monkeypatch, gamma):
    # with or without dephasing, the recorded gaps are the scan of the run's
    # Hamiltonian, within 1e-12 of the parity-block scan
    from lmg_adiabat.protocols import run_scenario

    cfg = preset("III", 4, gamma=gamma, t_final=200.0, n_samples=21)
    run = run_scenario(cfg).trajectory
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta, cfg.schedule.omega1,
                                cfg.schedule.omega2)
    np.testing.assert_array_equal(run.gap, _scan(ham, run.times))
    monkeypatch.setattr(dynamics, "_is_symmetric_lmg", lambda terms: False)
    np.testing.assert_allclose(run.gap, _scan(ham, run.times), rtol=0, atol=1e-12)


def test_only_the_exact_collective_terms_take_the_total_spin_scan():
    # disorder adds a fourth term, and a rescaled or reordered J_z, J_x^2,
    # J_y^2 is not the register's: those keep the parity blocks
    from lmg_adiabat.model import DisorderProfile

    cfg, ham = _case_hamiltonian("I", 4)
    assert dynamics._is_symmetric_lmg(ham.terms)
    _, disordered = _case_hamiltonian("I", 4, DisorderProfile((0.1, 0.0, -0.1, 0.05), cfg.eta))
    for terms in (disordered.terms, 2.0 * ham.terms, ham.terms[[1, 0, 2]], ham.terms[:2]):
        assert not dynamics._is_symmetric_lmg(terms)
        assert [g.shape[1:] for g in dynamics._gap_blocks(terms)] == [(2, 8, 8)]


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_a_symmetric_batch_scans_inline_and_a_disordered_one_beside(monkeypatch):
    # the overlap is sized from the blocks each scan diagonalizes: 401
    # samples of the six dispersion members' spin-j halves take 0.4 MB, below
    # GAP_OVERLAP_BYTES, while the 12 disordered criterion-8 members' two
    # 8 x 8 parity blocks take 5.0 MB, above it
    from lmg_adiabat.protocols import (REFERENCE_DISPERSION_PAIRS, disorder_ensemble,
                                       dispersion_ensemble, reference_disorder_profiles)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    started = _threads_started(monkeypatch)
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=40.0)
    dispersion_ensemble(cfg, REFERENCE_DISPERSION_PAIRS)
    assert started == []
    disorder_ensemble(cfg, reference_disorder_profiles(cfg.eta))
    assert len(started) == 1


def test_mixed_parity_state_integrates_the_full_space(lindblad_terms):
    cfg = preset("I", 3, t_final=20.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(3), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, (1e-4,) * 3)
    kwargs = dict(n_samples=5)
    mixed = evolve(spec, density_from_state(dicke_state(3, 1.5, "x")), (0.0, 20.0), **kwargs)
    polarized = evolve(spec, density_from_state(cfg.initial_state()), (0.0, 20.0), **kwargs)
    # the kernel gets the terms on the block of basis states, and the
    # polarized run integrates the 5 dimensions of operators it reaches there
    assert [shape[1:] for shape in lindblad_terms] == [(8, 8), (4, 4)]
    assert (mixed.integrated_dim, polarized.integrated_dim) == (8, 5)
    assert (mixed.integrated_basis, polarized.integrated_basis) == (
        "basis states", "operator subspace")


def test_sampled_states_are_embedded_when_first_read(monkeypatch):
    calls = []
    embed = dynamics._Plan.embed

    def counted(plan, x):
        calls.append(x.shape)
        return embed(plan, x)

    monkeypatch.setattr(dynamics._Plan, "embed", counted)
    cfg = preset("I", 4, t_final=200.0, n_samples=21)
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    res = evolve(LindbladSpec(ham, cfg.gammas()), density_from_state(cfg.initial_state()),
                 (0.0, 200.0), n_samples=21, store_states=True)
    assert res.integrated_basis == "subspace"
    assert calls == []  # the final and sampled states wait for their first read
    samples = res.rho_samples
    assert calls == [(21, 3, 3)] and res.rho_samples is samples
    np.testing.assert_array_equal(samples, embed(res.basis, res.basis_samples))
    assert samples.shape == (21, 16, 16)
    final = res.rho_final
    assert calls == [(21, 3, 3), (3, 3)] and res.rho_final is final
    np.testing.assert_array_equal(final, embed(res.basis, res.basis_final))
    np.testing.assert_allclose(samples[-1], final, atol=1e-14)


def test_block_run_embeds_its_states_and_reports_their_min_eigenvalue():
    cfg = preset("I", 4, gamma=1e-4, t_final=200.0, n_samples=21)
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    args = (LindbladSpec(ham, cfg.gammas()), density_from_state(cfg.initial_state()),
            (0.0, 200.0))
    res = evolve(*args, n_samples=21)
    even = np.flatnonzero([bin(i).count("1") % 2 == 0 for i in range(16)])
    outside = np.ones((16, 16), dtype=bool)
    outside[even[:, None], even] = False  # the run starts in the even block
    assert (res.integrated_dim, res.integrated_basis) == (11, "operator subspace")
    assert np.all(res.rho_samples[:, outside] == 0) and np.all(res.rho_final[outside] == 0)
    np.testing.assert_array_equal(res.rho_samples, res.rho_samples.conj().transpose(0, 2, 1))
    inside = res.rho_samples[:, even[:, None], even]
    assert res.min_eigenvalue == np.min(np.linalg.eigvalsh(inside))
    assert abs(res.min_eigenvalue) < 1e-6  # a nearly pure state: its other eigenvalues ~ 0
    assert evolve(*args, n_samples=21, store_states=False).min_eigenvalue is None
    # a mixed state keeps its smallest weight under a Hamiltonian that commutes with it
    spec = LindbladSpec(np.diag([0.3, -0.3]).astype(complex), (0.0,))
    mixed = evolve(spec, np.diag([0.7, 0.3]).astype(complex), (0.0, 10.0), n_samples=5)
    assert mixed.min_eigenvalue == pytest.approx(0.3, abs=1e-12)


def test_evolve_rejects_bad_initial_state():
    with pytest.raises(InvalidInitialStateError):
        evolve(
            LindbladSpec(np.zeros((2, 2), dtype=complex), (0.0,)),
            1.5 * density_from_state(PLUS_X),
            (0.0, 1.0),
        )


#: Two spins, dim 4: np.linalg.eigh raises on a NaN matrix from dim 3 on.
TWO_SPIN_H = (np.kron(SIGMA_X, np.eye(2)) + np.kron(np.eye(2), SIGMA_X)
              + 0.7 * np.kron(SIGMA_Z, SIGMA_Z)).astype(complex)
TWO_SPIN_PLUS_X = np.kron(PLUS_X, PLUS_X)


def _failing_after(t_fail):
    """TWO_SPIN_H with a coefficient that turns NaN after ``t_fail``."""
    from lmg_adiabat.model import LinearHamiltonian

    def coefficients(ts):
        ts = np.asarray(ts, dtype=np.float64)
        return np.where(ts > t_fail, np.nan, 1.0)[:, None]

    return LinearHamiltonian(terms=TWO_SPIN_H[None], coefficients=coefficients)


def test_evolve_step_failure_on_unstable_step():
    # a Hamiltonian that stops being finite: the trace check must trip
    with np.errstate(all="ignore"), pytest.raises(StepFailureError, match="at t = 104 "):
        evolve(
            LindbladSpec(_failing_after(100.0), (0.2, 0.2)),
            density_from_state(TWO_SPIN_PLUS_X),
            (0.0, 4000.0),
            step=8.0,
            n_samples=40,
        )


def _block_steps(monkeypatch, steps, members, terms):
    """Cut runs into blocks of ``steps`` steps, and make every kernel call of a batch of
    ``members`` with ``terms`` distinct terms take one block: its coefficient table
    holds 16 bytes a step, member and term."""
    monkeypatch.setattr(_kernels, "BLOCK_STEPS", steps)
    monkeypatch.setattr(dynamics, "TABLE_BYTES", 16 * steps * members * terms)


def test_block_size_does_not_change_the_result(monkeypatch):
    cfg = preset("I", 2, t_final=60.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(2), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, (1e-3, 2e-3))
    rho0 = density_from_state(cfg.initial_state())
    kwargs = dict(n_samples=13, step=0.25, populations={"start": cfg.initial_state()})
    # 246 steps of a step that is not a binary fraction: one block, then six
    # blocks of 41 steps that end on every other sample
    whole = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    _block_steps(monkeypatch, 41, 1, 3)
    blocked = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    for name in ("purity", "trace_defect", "hermiticity_defect", "rho_samples", "rho_final"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)
    np.testing.assert_array_equal(blocked.populations["start"], whole.populations["start"])


def test_block_size_changes_an_undamped_result_only_by_rounding(monkeypatch):
    # the twin of the test above without dephasing: the steps of a sample
    # interval are fused into one product, and a block end cuts that product
    cfg = preset("I", 2, t_final=60.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(2), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, (0.0, 0.0))
    rho0 = density_from_state(cfg.initial_state())
    kwargs = dict(n_samples=13, step=0.25, populations={"start": cfg.initial_state()})
    whole = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    _block_steps(monkeypatch, 41, 1, 3)
    blocked = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    for name in ("purity", "trace_defect", "rho_samples", "rho_final"):
        np.testing.assert_allclose(getattr(blocked, name), getattr(whole, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(blocked.populations["start"], whole.populations["start"],
                               rtol=0, atol=1e-12)
    assert np.all(blocked.hermiticity_defect == 0.0) and np.all(whole.hermiticity_defect == 0.0)
    assert abs(blocked.populations["start"][-1] - 1.0) > 1e-3  # the state has moved


def test_block_size_changes_an_operator_space_result_only_by_rounding(monkeypatch):
    # the twin of the two tests above on the operator subspace: the steps of
    # a sample interval are fused with dephasing too, and between blocks the
    # state goes through its k x k matrix and back to coordinates
    cfg = preset("I", 3, t_final=60.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(3), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, (1e-3,) * 3)
    rho0 = density_from_state(cfg.initial_state())
    kwargs = dict(n_samples=13, step=0.25, populations={"start": cfg.initial_state()})
    whole = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    _block_steps(monkeypatch, 41, 1, 3)
    blocked = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    assert (whole.integrated_dim, whole.integrated_basis) == (5, "operator subspace")
    for name in ("purity", "trace_defect", "rho_samples", "rho_final"):
        np.testing.assert_allclose(getattr(blocked, name), getattr(whole, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(blocked.populations["start"], whole.populations["start"],
                               rtol=0, atol=1e-12)
    assert np.all(blocked.hermiticity_defect == 0.0) and np.all(whole.hermiticity_defect == 0.0)
    assert abs(blocked.populations["start"][-1] - 1.0) > 1e-3  # the state has moved


@pytest.mark.parametrize("case,n,dim", [("II", 3, 5), ("I", 4, 11), ("III", 6, 24)])
def test_operator_subspace_of_a_dephased_run(case, n, dim):
    # a real orthonormal basis of symmetric and i-antisymmetric operators on
    # the parity block that holds rho0, which diagonalizes the mask
    cfg = preset(case, n, gamma=1e-4)
    ham = lmg_sweep_hamiltonian(SpinRegister(n), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    rho0 = density_from_state(cfg.initial_state())
    w = dephasing_mask(cfg.gammas())
    (basis,) = dynamics._integration_plans(ham.terms, [range(len(ham.terms))], w, rho0[None])
    assert (basis.kind, basis.dim, basis.q.shape[1]) == ("operator subspace", dim, 2 ** (n - 1))
    ops = basis.operators
    k = basis.q.shape[1]
    inside = (Ellipsis, np.flatnonzero(basis.q.any(axis=1))[:, None],
              np.flatnonzero(basis.q.any(axis=1)))
    sym = ops.symmetric[0].reshape(-1, k, k)
    anti = ops.antisymmetric[0].reshape(-1, k, k)
    np.testing.assert_allclose(sym, sym.swapaxes(1, 2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(anti, -anti.swapaxes(1, 2), rtol=0, atol=1e-15)
    rows = np.concatenate([ops.symmetric[0], ops.antisymmetric[0]])
    np.testing.assert_allclose(rows @ rows.T, np.eye(dim), rtol=0, atol=1e-13)
    mask = w[inside].reshape(-1)
    np.testing.assert_allclose(rows @ (mask * rows).T, np.diag(ops.rates[0]), rtol=0,
                               atol=1e-13 * np.abs(mask).max())
    # the couplings are the coordinates of -i [T, S] = i (S T - T S) on the i A
    terms = ham.terms[inside].real
    for term, coupling in zip(terms, ops.couplings[0]):
        images = sym @ term - term @ sym
        np.testing.assert_allclose(coupling, anti.reshape(len(anti), -1)
                                   @ images.reshape(len(sym), -1).T, rtol=0, atol=1e-12)
    x = ops.coordinates(rho0[inside][None])
    np.testing.assert_allclose(ops.embed(x[:, None])[0, 0], rho0[inside], rtol=0, atol=1e-15)


def _clean_and_twisted(n):
    """Case I at N = n with dephasing: the preset's spec, the same with the
    complex (J_x J_y + J_y J_x) / 2 term added, and the preset start."""
    from lmg_adiabat.operators import collective_operator

    cfg = preset("I", n, gamma=1e-4, t_final=100.0)
    reg = SpinRegister(n)
    lmg = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    jx, jy = (collective_operator(reg, axis) for axis in "xy")
    twisted = LinearHamiltonian(
        terms=np.concatenate([lmg.terms, [dynamics._hermitian_part(jx @ jy)]]),
        coefficients=lambda ts: np.column_stack([lmg.coefficients(ts),
                                                 np.full(np.size(ts), 0.01)]))
    specs = [LindbladSpec(lmg, cfg.gammas()), LindbladSpec(twisted, cfg.gammas())]
    return cfg, specs, density_from_state(cfg.initial_state())


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
@pytest.mark.parametrize("gammas", [(1e-4, 2e-4, 1.5e-4), "complex"],
                         ids=["per-spin", "complex-term"])
def test_dephased_run_without_a_small_operator_space_steps_on_the_block(monkeypatch, gammas):
    # per-spin rates reach 16 dimensions at N = 3, all of the block's
    # operators; a complex term is not split into real halves.  Either run
    # keeps to the per-step loop on the block, with the bits it had there
    cfg, (clean, twisted), rho0 = _clean_and_twisted(3)
    spec = twisted if gammas == "complex" else LindbladSpec(clean.hamiltonian, gammas)
    args = (spec, rho0, (0.0, 100.0))
    kwargs = dict(n_samples=11, populations={"start": cfg.initial_state()})
    got = evolve(*args, **kwargs)
    assert (got.integrated_dim, got.integrated_basis) == (4, "basis states")
    monkeypatch.setattr(dynamics, "_operator_subspace", lambda terms, w, rho0s, limit: None)
    want = evolve(*args, **kwargs)
    for name in ("purity", "trace_defect", "hermiticity_defect", "rho_samples", "rho_final"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    np.testing.assert_array_equal(got.populations["start"], want.populations["start"])


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_dephased_batch_runs_each_member_on_its_own_operator_space(lindblad_calls):
    # the clean and the disordered member reach spaces of the same dimension
    # with different bases: one kernel call integrates both, each on its own
    # basis, and each member keeps the bits of its standalone run
    from lmg_adiabat.model import DisorderProfile
    from lmg_adiabat.protocols import run_scenario, run_scenarios

    cfg = preset("I", 4, gamma=1e-4, t_final=100.0, n_samples=11)
    cfgs = [cfg, dataclasses.replace(cfg, disorder=DisorderProfile(
        tuple(np.linspace(-0.1, 0.1, 4)), cfg.eta))]
    batch = [run.trajectory for run in run_scenarios(cfgs)]
    assert [shape[1] for shape in lindblad_calls] == [2]
    for got, c in zip(batch, cfgs):
        want = run_scenario(c).trajectory
        assert (got.integrated_dim, got.integrated_basis) == (11, "operator subspace")
        for name in ("purity", "trace_defect", "rho_samples", "rho_final"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                          err_msg=name)


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_dephased_members_whose_spaces_differ_in_dimension_take_a_call_each(lindblad_calls):
    # on the even block the polarized start reaches 11 dimensions of
    # operators, while the block's maximally mixed state commutes with every
    # term and spans 1: the members run in one kernel call each, and each
    # keeps the bits of its standalone run
    cfg = preset("I", 4, gamma=1e-4, t_final=100.0, n_samples=11)
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, cfg.gammas())
    even = np.array([bin(i).count("1") % 2 == 0 for i in range(16)])
    rho0s = [density_from_state(cfg.initial_state()), np.diag(even / 8.0).astype(complex)]
    kwargs = dict(n_samples=11, populations={"start": cfg.initial_state()})
    batch = evolve_batch([spec, spec], rho0s, (0.0, 100.0), **kwargs)
    assert [shape[1] for shape in lindblad_calls] == [1, 1]
    for got, rho0, dim in zip(batch, rho0s, (11, 1)):
        want = evolve(spec, rho0, (0.0, 100.0), **kwargs)
        assert (got.integrated_dim, got.integrated_basis) == (dim, "operator subspace")
        for name in ("purity", "trace_defect", "rho_samples", "rho_final"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                          err_msg=name)
        np.testing.assert_array_equal(got.populations["start"], want.populations["start"])
    np.testing.assert_allclose(batch[1].purity, 1.0 / 8.0, rtol=0, atol=1e-15)  # it stays put


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a short sweep
def test_dephased_batch_with_a_member_without_a_small_space_runs_on_the_block(lindblad_calls):
    # the complex (J_x J_y + J_y J_x) / 2 term is not split into real halves,
    # so its member has no operator space; the whole batch then runs in one
    # call on the block of basis states of its union, and that member keeps
    # the bits of its standalone run there
    cfg, specs, rho0 = _clean_and_twisted(3)
    kwargs = dict(n_samples=11, populations={"start": cfg.initial_state()})
    batch = evolve_batch(specs, [rho0, rho0], (0.0, 100.0), **kwargs)
    assert [shape[1] for shape in lindblad_calls] == [2]
    assert [(r.integrated_dim, r.integrated_basis) for r in batch] == [(4, "basis states")] * 2
    alone = evolve(specs[1], rho0, (0.0, 100.0), **kwargs)
    assert (alone.integrated_dim, alone.integrated_basis) == (4, "basis states")
    for name in ("purity", "trace_defect", "hermiticity_defect", "rho_samples", "rho_final"):
        np.testing.assert_array_equal(getattr(batch[1], name), getattr(alone, name),
                                      err_msg=name)
    np.testing.assert_array_equal(batch[1].populations["start"], alone.populations["start"])
    # the clean member agrees with its run on its operator space to rounding
    own = evolve(specs[0], rho0, (0.0, 100.0), **kwargs)
    assert own.integrated_basis == "operator subspace"
    np.testing.assert_allclose(batch[0].rho_final, own.rho_final, rtol=0, atol=1e-12)


def test_a_complex_member_spares_the_batch_every_operator_space_closure(monkeypatch,
                                                                        lindblad_calls):
    # the complex member has no operator space, which shows before any closure
    # runs, so the clean member's closure is not built and thrown away
    closures = []
    closure = dynamics._operator_subspace

    def counted(terms, w, rho0s, limit):
        closures.append(terms.shape)
        return closure(terms, w, rho0s, limit)

    monkeypatch.setattr(dynamics, "_operator_subspace", counted)
    _, specs, rho0 = _clean_and_twisted(4)
    batch = evolve_batch(specs, [rho0, rho0], (0.0, 100.0), n_samples=11)
    assert closures == []
    assert [shape[1] for shape in lindblad_calls] == [2]
    assert [(r.integrated_dim, r.integrated_basis) for r in batch] == [(8, "basis states")] * 2


def test_step_failure_stops_the_run_at_the_failing_block(monkeypatch, lindblad_calls):
    # the second member's Hamiltonian turns NaN after t = 100, the first stays
    # finite; the run must stop after the first block instead of finishing the window
    _block_steps(monkeypatch, 20, 2, 2)
    rho0 = density_from_state(TWO_SPIN_PLUS_X)
    failure = pytest.raises(StepFailureError, match="member 1: .* at t = 104 ")
    with np.errstate(all="ignore"), failure:
        evolve_batch(
            [LindbladSpec(0.01 * TWO_SPIN_H, ()), LindbladSpec(_failing_after(100.0), ())],
            [rho0, rho0],
            (0.0, 4000.0),
            step=8.0,
            n_samples=40,
        )
    assert len(lindblad_calls) == 1  # of the 25 blocks in the 500-step window


@pytest.mark.parametrize("gammas", [(), (1e-3, 1e-3)], ids=["undamped", "dephased"])
def test_step_failure_inside_a_fused_interval_stops_at_the_same_block(
        monkeypatch, lindblad_calls, gammas):
    # the twin of the test above with the NaN in the middle of a sample
    # interval: steps 13 to 26 are one fused product without dephasing, and
    # the coefficient turns NaN at t = 148, inside step 18; both runs stop at
    # the sample at step 26 in the first of 13 blocks of 40 steps
    _block_steps(monkeypatch, 40, 2, 2)
    rho0 = density_from_state(TWO_SPIN_PLUS_X)
    failure = pytest.raises(StepFailureError, match="member 1: .* at t = 208 ")
    with np.errstate(all="ignore"), failure:
        evolve_batch(
            [LindbladSpec(0.01 * TWO_SPIN_H, gammas), LindbladSpec(_failing_after(147.0), gammas)],
            [rho0, rho0],
            (0.0, 4000.0),
            step=8.0,
            n_samples=40,
        )
    assert len(lindblad_calls) == 1


def _scan_cpus(monkeypatch, cpus):
    """Let evolve_batch see ``cpus`` usable CPUs and scan beside the integration
    whatever the scan's size: from 2 CPUs on the gap scan runs on a helper
    thread, with 1 after the integration on the calling thread."""
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(_kernels, "GAP_OVERLAP_BYTES", 0)


def _threads_started(monkeypatch):
    """Names of the threads started from here on, in order."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def _slow_scan(fails):
    """A gap scan that is still running when a short integration has ended."""
    scan = dynamics._gap_scan

    def slow(ham, times, groups):
        time.sleep(0.1)
        if fails:
            raise RuntimeError("gap scan failed")
        return scan(ham, times, groups)

    return slow


@pytest.mark.parametrize("scan_fails", [False, True], ids=["scan-runs", "scan-raises"])
def test_step_failure_wins_over_the_gap_scan_beside_it(monkeypatch, scan_fails):
    _scan_cpus(monkeypatch, 2)
    monkeypatch.setattr(dynamics, "_gap_scan", _slow_scan(scan_fails))
    started = _threads_started(monkeypatch)
    before = threading.active_count()
    with np.errstate(all="ignore"), pytest.raises(StepFailureError, match="at t = 104 "):
        evolve(LindbladSpec(_failing_after(100.0), ()), density_from_state(TWO_SPIN_PLUS_X),
               (0.0, 4000.0), step=8.0, n_samples=40)
    assert len(started) == 1
    assert threading.active_count() == before


def test_gap_scan_error_is_raised_after_the_integration(monkeypatch, lindblad_calls):
    _scan_cpus(monkeypatch, 2)
    monkeypatch.setattr(dynamics, "_gap_scan", _slow_scan(True))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="gap scan failed"):
        evolve(LindbladSpec(0.01 * TWO_SPIN_H, ()), density_from_state(TWO_SPIN_PLUS_X),
               (0.0, 400.0), step=8.0, n_samples=40)
    assert len(lindblad_calls) == 1  # the whole window, in one block
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus,small", [(1, False), (2, True)], ids=["one-cpu", "small-scan"])
def test_no_thread_without_a_large_gap_scan_and_a_second_cpu(monkeypatch, cpus, small):
    _scan_cpus(monkeypatch, cpus)
    if small:  # 40 samples of a 4 x 4 Hamiltonian take 5 kB
        monkeypatch.setattr(_kernels, "GAP_OVERLAP_BYTES", 8 * 40 * 16 + 1)
    started = _threads_started(monkeypatch)
    run = evolve(LindbladSpec(0.01 * TWO_SPIN_H, ()), density_from_state(TWO_SPIN_PLUS_X),
                 (0.0, 400.0), step=8.0, n_samples=40)
    assert started == []
    assert run.gap.shape == (40,)


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_member_s_gap_blocks_are_searched_once(monkeypatch, cpus):
    # the search that sizes the overlap hands its blocks to the scan
    from lmg_adiabat.protocols import reference_disorder_profiles

    _scan_cpus(monkeypatch, cpus)
    searched = []
    search = dynamics._gap_blocks

    def counting(terms):
        searched.append(len(terms))
        return search(terms)

    monkeypatch.setattr(dynamics, "_gap_blocks", counting)
    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=40.0, n_samples=5)
    reg = SpinRegister(4)
    specs = [LindbladSpec(lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1,
                                                cfg.schedule.omega2, p))
             for p in [None, *reference_disorder_profiles(cfg.eta)[:2]]]
    rho0 = density_from_state(cfg.initial_state())
    runs = evolve_batch(specs, [rho0] * 3, (0.0, cfg.t_final), n_samples=cfg.n_samples)
    assert searched == [3, 4, 4]
    for spec, run in zip(specs, runs):
        np.testing.assert_array_equal(run.gap, _scan(spec.hamiltonian, run.times))


def test_gap_scan_beside_the_integration_sees_the_callers_errstate(monkeypatch):
    _scan_cpus(monkeypatch, 2)
    seen = []
    scan = dynamics._gap_scan

    def spy(ham, times, groups):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return scan(ham, times, groups)

    monkeypatch.setattr(dynamics, "_gap_scan", spy)
    default = np.geterr()
    with np.errstate(all="ignore"):
        caller = np.geterr()
        evolve(LindbladSpec(0.01 * TWO_SPIN_H, ()), density_from_state(TWO_SPIN_PLUS_X),
               (0.0, 400.0), step=8.0, n_samples=40)
    assert caller != default
    assert seen == [(False, caller)]


def test_gap_scan_beside_a_disordered_batch_matches_the_serial_scan(monkeypatch):
    from lmg_adiabat.protocols import reference_disorder_profiles

    cfg = preset("I", 4, detuning_magnitude=0.9, t_final=400.0, n_samples=21)
    specs = [LindbladSpec(lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta,
                                                cfg.schedule.omega1, cfg.schedule.omega2, p))
             for p in reference_disorder_profiles(cfg.eta)[:3]]
    rho0s = [density_from_state(dicke_state(4, 0.0))] * 3
    started = _threads_started(monkeypatch)
    _scan_cpus(monkeypatch, 2)
    beside = evolve_batch(specs, rho0s, (0.0, cfg.t_final), n_samples=cfg.n_samples)
    assert len(started) == 1
    _scan_cpus(monkeypatch, 1)
    serial = evolve_batch(specs, rho0s, (0.0, cfg.t_final), n_samples=cfg.n_samples)
    assert len(started) == 1
    for spec, a, b in zip(specs, beside, serial):
        want = _scan(spec.hamiltonian, a.times)
        np.testing.assert_array_equal(a.gap, want)
        np.testing.assert_array_equal(b.gap, want)
        np.testing.assert_array_equal(a.rho_final, b.rho_final)


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


def test_rotating_frame_states_match_rk4(single_tone_params):
    ham = full_interaction_hamiltonian(single_tone_params)
    psi0 = np.zeros(ham.dim, dtype=complex)
    psi0[[0, single_tone_params.fock_cutoff + 1]] = 1.0 / np.sqrt(2.0)
    times, psis, _ = evolve_state(ham, psi0, (0.0, 40.0), n_samples=21, step=0.01)
    exact = rotating_frame_states(ham.matrix(0.0), full_interaction_frame(single_tone_params),
                                  psi0, times)
    np.testing.assert_allclose(exact, psis, rtol=0, atol=1e-8)


def test_rotating_frame_states_with_zero_frame_evolve_a_constant_hamiltonian():
    reg = SpinRegister(2)
    h = build_effective_lmg(reg, effective_coefficients(0.1, -1.1, 0.3, 0.1))
    ham = LinearHamiltonian(terms=h[None], coefficients=lambda ts: np.ones((ts.size, 1)))
    psi0 = dicke_state(2, 0.0, "x")
    times, psis, _ = evolve_state(ham, psi0, (0.0, 300.0), n_samples=31, step=0.01)
    exact = rotating_frame_states(h, np.zeros(reg.dim), psi0, times)
    np.testing.assert_allclose(exact, psis, rtol=0, atol=1e-8)
    with pytest.raises(DimensionMismatchError):
        rotating_frame_states(h, np.zeros(reg.dim + 1), np.append(psi0, 0.0), times)


@pytest.mark.parametrize("n", [3, 5])
def test_symmetric_sector_equivalence(n):
    from lmg_adiabat.states import target_state
    from oracles import symmetric_sector_isometry

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
    kwargs = dict(n_samples=9, store_states=False)
    full = evolve(LindbladSpec(ham, ()), density_from_state(psi0), (0.0, cfg.t_final),
                  populations={"t": tgt}, **kwargs)
    sect = evolve(LindbladSpec(ham_sector, ()), density_from_state(v.conj().T @ psi0),
                  (0.0, cfg.t_final), populations={"t": v.conj().T @ tgt}, **kwargs)
    assert np.max(np.abs(full.populations["t"] - sect.populations["t"])) <= 1e-8


def test_step_halving_convergence_case_one():
    from lmg_adiabat.protocols import run_scenario

    cfg = preset("I", 3)
    r1 = run_scenario(cfg)
    r2 = run_scenario(dataclasses.replace(cfg, step=0.125))
    assert abs(r1.final_population - r2.final_population) <= 1e-6
    assert abs(r1.final_population_phase_opt - r2.final_population_phase_opt) <= 1e-6


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")  # a fast sweep
def test_fast_sweep_stays_positive():
    from lmg_adiabat.protocols import run_scenario

    # RK4 at step 0.25 reached -1.8e-5 here; the CF4 step is CPTP
    res = run_scenario(preset("I", 4, t_final=400.0))
    assert res.trajectory.min_eigenvalue >= -1e-12


def test_sample_grid_is_uneven_where_the_samples_do_not_divide_the_steps():
    # 401 samples over 4000/nu: steps 1, 2, 2.5 and 5 put every sample on its
    # nominal time (a multiple of 10), steps 4 and 8 round the sample steps
    # to the step grid, up to half a step from nominal
    nominal = np.linspace(0.0, 4000.0, 401)
    for step in (1.0, 2.0, 2.5, 5.0):
        np.testing.assert_array_equal(dynamics.sample_times((0.0, 4000.0), step, 401), nominal)
    at_4 = dynamics.sample_times((0.0, 4000.0), 4.0, 401)
    np.testing.assert_array_equal(at_4[:5], [0.0, 8.0, 20.0, 32.0, 40.0])
    assert np.abs(at_4 - nominal).max() == 2.0
    assert np.abs(dynamics.sample_times((0.0, 4000.0), 8.0, 401) - nominal).max() == 4.0


def test_one_kernel_call_per_plan_for_a_single_run(lindblad_calls):
    # the coefficient table of a single preset run, 8001 half-steps of three
    # terms, is far below TABLE_BYTES, so the whole window is one call
    from lmg_adiabat.protocols import run_scenario

    run_scenario(preset("I", 4))
    assert lindblad_calls == [(8001, 1, 3)]


@pytest.mark.filterwarnings("ignore::lmg_adiabat.errors.RegimeWarning")
def test_the_criterion_8_batch_keeps_blocks_of_about_500_steps(lindblad_calls):
    # 13 members and 15 distinct terms: the table fits 504 steps, so one
    # block of 500 steps a call, 8 calls over 4000/nu
    from lmg_adiabat.protocols import disorder_ensemble, reference_disorder_profiles

    cfg = preset("I", 4, detuning_magnitude=0.9)
    disorder_ensemble(cfg, reference_disorder_profiles(cfg.eta))
    assert dynamics.TABLE_BYTES // (16 * 13 * 15) == 504 and _kernels.BLOCK_STEPS == 500
    assert lindblad_calls == [(2 * 500 + 1, 13, 15)] * 8


@pytest.mark.parametrize("gammas,n,basis", [
    ((0.0,) * 4, 4, "subspace"),
    ((0.0, 0.0), 2, "basis states"),
    ((1e-3, 2e-3), 2, "basis states"),
    ((1e-3,) * 3, 3, "operator subspace"),
], ids=["undamped-subspace", "undamped-block", "dephased", "operator-space"])
def test_calls_cut_at_block_starts_do_not_change_the_result(monkeypatch, gammas, n, basis):
    # 246 steps in blocks of 41: one call for the window, against one call a
    # block, gives the same bits on each path of the kernel (closed-form and
    # series propagators fused per sample interval, one step at a time with
    # dephasing, and the operator space)
    cfg = preset("I", n, t_final=60.0)
    ham = lmg_sweep_hamiltonian(SpinRegister(n), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    spec = LindbladSpec(ham, gammas)
    rho0 = density_from_state(cfg.initial_state())
    kwargs = dict(n_samples=13, step=0.25, populations={"start": cfg.initial_state()})
    monkeypatch.setattr(_kernels, "BLOCK_STEPS", 41)
    whole = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    _block_steps(monkeypatch, 41, 1, 3)
    blocked = evolve(spec, rho0, (0.0, 61.3), **kwargs)
    assert whole.integrated_basis == basis
    for name in ("purity", "trace_defect", "hermiticity_defect", "rho_samples", "rho_final"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)
    np.testing.assert_array_equal(blocked.populations["start"], whole.populations["start"])


def test_sample_grid_keeps_the_requested_samples():
    # a short window takes one step per sample interval rather than drop rows
    t0, h, n_steps, idx = dynamics._sample_grid((0.0, 120.0), 1.0, 401)
    assert (n_steps, h, idx.size) == (400, 0.3, 401)
    np.testing.assert_array_equal(idx, np.arange(401))
    # the preset window: 4000 steps of 1/nu, a sample every 10 steps
    t0, h, n_steps, idx = dynamics._sample_grid((0.0, 4000.0), dynamics.DEFAULT_STEP, 401)
    assert (n_steps, h) == (4000, 1.0)
    np.testing.assert_array_equal(idx, np.arange(0, 4001, 10))
    # a step that does not divide the window is shortened to fit it
    assert dynamics._sample_grid((0.0, 10.0), 3.0, 2)[1:3] == (2.5, 4)


@pytest.mark.parametrize("t_span,step", [
    ((0.0, 4000.0), 1e-300),
    ((0.0, 1.0), 2.0**-54),
    ((0.0, np.inf), 1.0),
    ((0.0, 1e9 + 1.0), 1.0),
], ids=["overflow", "past-2**53", "infinite-window", "past-1e9"])
def test_sample_grid_rejects_a_step_count_beyond_int64(t_span, step):
    with pytest.raises(ValueError, match=r"above the step limit \(1e\+09\)"):
        dynamics._sample_grid(t_span, step, 5)
    with pytest.raises(ValueError, match=r"above the step limit \(1e\+09\)"):
        dynamics.sample_times(t_span, step, 5)


def test_sample_grid_takes_the_step_limit_itself():
    assert dynamics.MAX_STEPS == 10**9
    assert dynamics._sample_grid((0.0, 1e9), 1.0, 5)[2] == 10**9


def test_adiabaticity_profile_constant_schedule():
    # a constant drive, with omega2 zero throughout, gives a constant gap
    sched = DriveSchedule(zeta=0.3, ramp1=np.inf, ramp2=np.inf, dzeta2=-0.3)
    times = np.linspace(0.0, 100.0, 5)
    ham = lmg_sweep_hamiltonian(SpinRegister(3), 0.1, -1.1, sched.omega1, sched.omega2)
    gaps = _scan(ham, times)
    assert np.allclose(gaps, gaps[0])
    assert np.allclose(sched.omega2(times), 0.0)


def test_adiabaticity_profile_case_one_gap_positive_and_final_value():
    cfg = preset("I", 4)
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta,
                                cfg.schedule.omega1, cfg.schedule.omega2)
    gaps = _scan(ham, np.linspace(0.0, 4000.0, 81))
    assert np.all(gaps > 0.0)
    # final gap from the one-axis m^2 spectrum: |alpha| beta2^2 (2J - 1)
    c = effective_coefficients(cfg.eta, cfg.delta, float(cfg.schedule.omega1(4000.0)),
                               float(cfg.schedule.omega2(4000.0)))
    expected = abs(c.alpha) * c.beta2**2 * 3.0
    assert gaps[-1] == pytest.approx(expected, rel=5e-3)


def test_spectral_gap_band_semantics():
    # the band holds the levels up to 1e-3 of the spread (here 1) above the ground level
    h = np.diag([0.0, 1e-4, 0.5, 1.0]).astype(complex)
    assert spectral_gap(h) == pytest.approx(0.5)
    assert spectral_gap(np.diag([0.0, 1e-2, 0.5, 1.0]).astype(complex)) == pytest.approx(1e-2)
    # a stack applies the band rule to each matrix; a fully degenerate band has gap 0
    stack = np.stack([h, np.diag([0.0, 0.2, 0.2, 0.9]).astype(complex), np.eye(4, dtype=complex)])
    gaps = spectral_gap(stack)
    assert gaps.shape == (3,)
    assert [spectral_gap(m) for m in stack] == list(gaps) == [0.5, 0.2, 0.0]
