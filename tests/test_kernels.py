import dataclasses

import numpy as np
import pytest

from lmg_adiabat import _kernels
from lmg_adiabat.protocols import preset, run_scenario


def _tiny_problem(rng, dim=4, n_terms=2, n_steps=40):
    terms = rng.normal(size=(n_terms, dim, dim)) + 1j * rng.normal(size=(n_terms, dim, dim))
    terms = 0.5 * (terms + terms.conj().transpose(0, 2, 1))
    ctab = rng.normal(size=(2 * n_steps + 1, n_terms))
    w = -np.abs(rng.normal(size=(dim, dim)))
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    forms_l = np.ascontiguousarray([psi, np.eye(dim, dtype=complex)[0]])
    forms_r = np.ascontiguousarray([psi, np.eye(dim, dtype=complex)[1]])
    obs = np.ascontiguousarray([0.5 * (m + m.conj().T) for m in
                                rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))])
    sample_idx = np.array([0, 7, 23, n_steps], dtype=np.int64)
    return terms, ctab, w, rho0, sample_idx, forms_l, forms_r, obs


@pytest.mark.parametrize("case", ["complex-hermitian", "real-symmetric", "no-dissipator"])
def test_lindblad_backends_agree(case):
    # the numpy kernel takes a real product for real terms and skips an all-zero mask
    rng = np.random.default_rng(42)
    terms, ctab, w, rho0, idx, fl, fr, obs = _tiny_problem(rng)
    if case != "complex-hermitian":
        terms = np.ascontiguousarray(terms.real, dtype=np.complex128)
    if case == "no-dissipator":
        w = np.zeros_like(w)
    out_loops = _kernels._lindblad_rk4_loops(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
    out_numpy = _kernels._lindblad_rk4_numpy(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
    for a, b in zip(out_loops, out_numpy):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
    if _kernels.NUMBA_AVAILABLE:
        k = _kernels.get_kernels("numba")
        out_numba = k.lindblad_rk4(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
        for a, b in zip(out_numba, out_numpy):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kernel", [
    _kernels._lindblad_rk4_numpy,
    _kernels.over_members(_kernels._lindblad_rk4_loops),
    _kernels._lindblad_cf4_numpy,
], ids=["numpy", "loops", "cf4"])
def test_lindblad_batch_form_matches_single_runs(kernel):
    rng = np.random.default_rng(45)
    terms, ctab, w, rho0, idx, fl, fr, obs = _tiny_problem(rng)
    ctabs = [ctab, 0.5 * ctab, rng.normal(size=ctab.shape)]
    rho0s = [rho0, np.eye(4, dtype=complex) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)]
    batch = kernel(terms, np.ascontiguousarray(np.stack(ctabs, axis=1)), w, np.stack(rho0s),
                   0.01, idx, fl, fr, obs, True)
    for b in range(3):
        single = kernel(terms, ctabs[b], w, rho0s[b].copy(), 0.01, idx, fl, fr, obs, True)
        for got, want in zip(batch, single):
            assert got.shape[0] == 3
            assert np.allclose(got[b], want, rtol=0.0, atol=1e-12)


def test_schrodinger_backends_agree():
    rng = np.random.default_rng(43)
    terms, ctab, _, _, idx, _, _, _ = _tiny_problem(rng)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    s_loops = _kernels._schrodinger_rk4_loops(terms, ctab, psi0.copy(), 0.01, idx)
    s_numpy = _kernels._schrodinger_rk4_numpy(terms, ctab, psi0.copy(), 0.01, idx)
    for a, b in zip(s_loops, s_numpy):
        assert np.allclose(a, b, atol=1e-12)
    if _kernels.NUMBA_AVAILABLE:
        k = _kernels.get_kernels("numba")
        s_numba = k.schrodinger_rk4(terms, ctab, psi0.copy(), 0.01, idx)
        for a, b in zip(s_numba, s_numpy):
            assert np.allclose(a, b, atol=1e-12)


def test_recorded_quantities_match_direct_evaluation():
    rng = np.random.default_rng(44)
    terms, ctab, w, rho0, idx, fl, fr, obs = _tiny_problem(rng)
    forms, exps, pur, tdef, hdef, rhos, rho_final = _kernels._lindblad_rk4_numpy(
        terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True
    )
    for k in range(idx.size):
        rho = rhos[k]
        assert np.allclose(forms[k, 0], fl[0].conj() @ rho @ fr[0], atol=1e-13)
        assert np.allclose(exps[k, 1], np.real(np.trace(obs[1] @ rho)), atol=1e-13)
        assert pur[k] == pytest.approx(np.real(np.trace(rho @ rho)), abs=1e-12)
        assert tdef[k] == pytest.approx(abs(np.trace(rho) - 1.0), abs=1e-13)
    assert np.allclose(rho_final, rhos[-1])


def test_backend_resolution(monkeypatch):
    installed = "numba" if _kernels.NUMBA_AVAILABLE else "numpy"
    assert _kernels.resolve_backend() == installed
    # the old selection variable is no longer read
    other = "numpy" if installed == "numba" else "numba"
    monkeypatch.setenv("LMG_ADIABAT_BACKEND", other)
    assert _kernels.resolve_backend() == installed
    assert _kernels.get_kernels().name == installed
    assert _kernels.get_kernels("numpy").name == "numpy"
    with pytest.raises(ValueError):
        _kernels.get_kernels("bogus")


def _integrate_with_rk4(monkeypatch):
    """Make the integrators call the RK4 reference kernel in place of CF4."""
    get_kernels = _kernels.get_kernels

    def rk4_kernels(backend=None):
        kern = get_kernels(backend)
        return kern._replace(lindblad_cf4=kern.lindblad_rk4)

    monkeypatch.setattr(_kernels, "get_kernels", rk4_kernels)


@pytest.mark.parametrize("case,gamma", [("I", 0.0), ("I", 1e-4), ("III", 0.0)])
def test_cf4_at_the_default_step_matches_rk4_at_a_small_step(monkeypatch, case, gamma):
    cfg = preset(case, 4, gamma=gamma)
    cf4 = run_scenario(cfg, record_gap=False)
    _integrate_with_rk4(monkeypatch)
    rk4 = run_scenario(dataclasses.replace(cfg, step=0.125), record_gap=False)
    assert cf4.trajectory.n_steps == 4000 and rk4.trajectory.n_steps == 32000
    assert abs(cf4.final_population - rk4.final_population) <= 1e-7
    for name, want in rk4.trajectory.populations.items():
        np.testing.assert_allclose(cf4.trajectory.populations[name], want, rtol=0, atol=2e-6)


def test_cf4_convergence_order():
    # errors of the sampled populations at steps 2 and 1 against step 0.25
    cfg = preset("I", 4)
    pops = {h: run_scenario(dataclasses.replace(cfg, step=h), record_gap=False)
            .trajectory.populations for h in (2.0, 1.0, 0.25)}

    def error(h):
        return max(np.max(np.abs(pops[h][k] - pops[0.25][k])) for k in pops[0.25])

    assert np.log2(error(2.0) / error(1.0)) >= 3.5


def test_cf4_keeps_trace_positivity_and_exact_hermiticity_at_a_large_step():
    # a step far past RK4's stability bound for these terms
    rng = np.random.default_rng(47)
    terms, ctab, w, rho0, idx, fl, fr, obs = _tiny_problem(rng)
    _, _, _, tdef, hdef, rhos, rho_final = _kernels._lindblad_cf4_numpy(
        terms, ctab, w, rho0.copy(), 2.0, idx, fl, fr, obs, True)
    assert np.max(tdef) <= 1e-12
    assert np.all(hdef == 0.0)
    np.testing.assert_array_equal(rhos, rhos.conj().transpose(0, 2, 1))
    assert np.min(np.linalg.eigvalsh(rhos)) >= -1e-12
    np.testing.assert_array_equal(rho_final, rhos[-1])


@pytest.mark.parametrize("dissipate,tol", [(True, 1e-5), (False, 5e-8)],
                         ids=["dissipator", "no-dissipator"])
def test_cf4_complex_terms_match_rk4_at_a_small_step(dissipate, tol):
    # smooth coefficients of complex Hermitian terms, 400 steps over t = 2;
    # the dephasing half-steps make the split step 2nd order in W
    rng = np.random.default_rng(46)
    terms, _, w, rho0, _, fl, fr, obs = _tiny_problem(rng)
    n_steps, dt = 400, 0.005
    t = (dt / 2.0) * np.arange(2 * n_steps + 1)
    ctab = np.stack([np.cos(t), np.sin(0.7 * t)], axis=1)
    if not dissipate:
        w = np.zeros_like(w)
    idx = np.array([0, 200, 400], dtype=np.int64)
    rk4 = _kernels._lindblad_rk4_numpy(terms, ctab, w, rho0.copy(), dt, idx, fl, fr, obs, True)
    cf4 = _kernels._lindblad_cf4_numpy(terms, ctab, w, rho0.copy(), dt, idx, fl, fr, obs, True)
    for got, want in zip(cf4, rk4):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_cf4_is_the_kernel_of_every_backend():
    assert _kernels.get_kernels("numpy").lindblad_cf4 is _kernels._lindblad_cf4_numpy
    if _kernels.NUMBA_AVAILABLE:
        assert _kernels.get_kernels("numba").lindblad_cf4 is _kernels._lindblad_cf4_numpy
