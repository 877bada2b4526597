import numpy as np
import pytest

from lmg_adiabat import _kernels


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


def test_lindblad_backends_agree():
    rng = np.random.default_rng(42)
    args = _tiny_problem(rng)
    terms, ctab, w, rho0, idx, fl, fr, obs = args
    out_loops = _kernels._lindblad_rk4_loops(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
    out_numpy = _kernels._lindblad_rk4_numpy(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
    for a, b in zip(out_loops, out_numpy):
        assert np.allclose(a, b, atol=1e-12)
    if _kernels.NUMBA_AVAILABLE:
        k = _kernels.get_kernels("numba")
        out_numba = k.lindblad_rk4(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, obs, True)
        for a, b in zip(out_numba, out_numpy):
            assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("kernel", [
    _kernels._lindblad_rk4_numpy,
    _kernels.over_members(_kernels._lindblad_rk4_loops),
], ids=["numpy", "loops"])
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
