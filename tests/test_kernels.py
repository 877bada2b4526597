import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lmg_adiabat import _kernels
from lmg_adiabat.protocols import preset, run_scenario


# ---------------------------------------------------------------------------
# plain-Python oracle: RK4 written out loop by loop, with the two-product
# commutator and a re-Hermitization after every step, for the numpy kernels
# to be checked against
# ---------------------------------------------------------------------------

def _lindblad_rk4_loops(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, store_rho):
    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]
    nf = form_left.shape[0]

    forms = np.zeros((m, nf), dtype=np.complex128)
    purity = np.zeros(m, dtype=np.float64)
    trace_defect = np.zeros(m, dtype=np.float64)
    herm_defect = np.zeros(m, dtype=np.float64)
    n_keep = m if store_rho else 0
    rho_samples = np.zeros((n_keep, d, d), dtype=np.complex128)

    rho = rho0.copy()
    h = np.zeros((d, d), dtype=np.complex128)
    raw_defect = 0.0
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            for f in range(nf):
                acc = 0.0 + 0.0j
                for i in range(d):
                    row = 0.0 + 0.0j
                    for j in range(d):
                        row += rho[i, j] * form_right[f, j]
                    acc += np.conj(form_left[f, i]) * row
                forms[ptr, f] = acc
            pur = 0.0
            tr = 0.0 + 0.0j
            for i in range(d):
                tr += rho[i, i]
                for j in range(d):
                    v = rho[i, j]
                    pur += v.real * v.real + v.imag * v.imag
            purity[ptr] = pur
            trace_defect[ptr] = abs(tr - 1.0)
            herm_defect[ptr] = raw_defect
            if store_rho:
                rho_samples[ptr] = rho
            ptr += 1
        if step == n_steps:
            break

        c0 = ctab[2 * step]
        cm = ctab[2 * step + 1]
        c1 = ctab[2 * step + 2]

        h[:, :] = 0.0
        for k in range(kk):
            h += c0[k] * terms[k]
        k1 = -1j * (h @ rho - rho @ h) + w * rho

        h[:, :] = 0.0
        for k in range(kk):
            h += cm[k] * terms[k]
        x = rho + (0.5 * dt) * k1
        k2 = -1j * (h @ x - x @ h) + w * x
        x = rho + (0.5 * dt) * k2
        k3 = -1j * (h @ x - x @ h) + w * x

        h[:, :] = 0.0
        for k in range(kk):
            h += c1[k] * terms[k]
        x = rho + dt * k3
        k4 = -1j * (h @ x - x @ h) + w * x

        raw = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if ptr < m and sample_idx[ptr] == step + 1:
            s = 0.0
            for i in range(d):
                for j in range(d):
                    dv = raw[i, j] - np.conj(raw[j, i])
                    s += dv.real * dv.real + dv.imag * dv.imag
            raw_defect = np.sqrt(s)
        rho = 0.5 * (raw + raw.conj().T)

    return forms, purity, trace_defect, herm_defect, rho_samples, rho


def _single_run(kernel, terms, ctab, w, rho0, *rest):
    """A kernel's outputs for one run: the (2n+1, K) table and (d, d) state as a batch of one."""
    return tuple(x[0] for x in kernel(terms, ctab[:, None, :], w, rho0[None], *rest))


def _schrodinger_rk4_loops(terms, ctab, psi0, dt, sample_idx):
    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]

    psi_samples = np.zeros((m, d), dtype=np.complex128)
    psi = psi0.copy()
    h = np.zeros((d, d), dtype=np.complex128)
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            psi_samples[ptr] = psi
            ptr += 1
        if step == n_steps:
            break

        c0 = ctab[2 * step]
        cm = ctab[2 * step + 1]
        c1 = ctab[2 * step + 2]

        h[:, :] = 0.0
        for k in range(kk):
            h += c0[k] * terms[k]
        k1 = -1j * (h @ psi)

        h[:, :] = 0.0
        for k in range(kk):
            h += cm[k] * terms[k]
        k2 = -1j * (h @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h @ (psi + (0.5 * dt) * k2))

        h[:, :] = 0.0
        for k in range(kk):
            h += c1[k] * terms[k]
        k4 = -1j * (h @ (psi + dt * k3))

        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return psi_samples, psi


def _eigh_exponentials(s, h):
    """exp(-i h S) of a stack of Hermitian S from its eigendecomposition.

    The oracle of the closed form and the series of ``_kernels._exp_blocks``.
    """
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(-1j * h * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _exponentials(s, h):
    """exp(-i h S) from ``_kernels._exp_blocks``, its block forms made complex."""
    return _kernels._unblock(_kernels._exp_blocks(s, h))


def _lindblad_cf4_steps(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, store_rho):
    """The CF4 step applied one step at a time, with each sample taken on its own.

    The oracle of the fused kernel ``_kernels._lindblad_cf4_numpy``: every
    step builds its own propagator with ``_kernels._cf4_propagators`` and
    conjugates rho with it between the two dephasing half-steps.
    """
    n_steps = (ctab.shape[0] - 1) // 2
    stage_terms, stage_dtype = _kernels._stage_terms(terms)
    half_damp = np.exp(0.5 * dt * w)
    rho = 0.5 * (rho0 + rho0.conj().T)
    states = []
    for step in range(n_steps + 1):
        if step in sample_idx:
            states.append(rho)
        if step == n_steps:
            break
        rows = ctab[2 * step:2 * step + 3, None, :]
        u = _kernels._unblock(
            _kernels._cf4_propagators(rows, stage_terms, stage_dtype, dt, terms.shape[1]))[0, 0]
        y = u @ (half_damp * rho) @ u.conj().T
        rho = half_damp * (0.5 * (y + y.conj().T))
    states = np.array(states)
    forms = np.einsum("fi,mij,fj->mf", form_left.conj(), states, form_right)
    purity = np.einsum("mij,mij->m", states.conj(), states).real
    trace_defect = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    herm_defect = np.linalg.norm(states - states.conj().swapaxes(1, 2), axis=(1, 2))
    return (forms, purity, trace_defect, herm_defect, states if store_rho else states[:0], rho)


def _lindblad_cf4_segments(terms, ctab, w, rho0, dt, sample_idx,
                           form_left, form_right, store_rho, operators=None):
    """A batch advanced one segment at a time, as a sequential loop.

    The oracle of the prefix pass of ``_kernels._lindblad_cf4_numpy``: the
    kernel's segments (``_kernels._segment_ends`` at its ``longest``, or one
    step each for a dephased run without ``operators``), each multiplied
    out by ``_kernels._segment_propagators``, but the state is carried
    through them in turn and Hermitized after each one.
    """
    b, d = rho0.shape[0], terms.shape[1]
    n_steps = (ctab.shape[0] - 1) // 2
    rho = 0.5 * (rho0 + rho0.conj().swapaxes(1, 2))
    if operators is None:
        stage_terms, stage_dtype = _kernels._stage_terms(terms)
        half_damp = np.exp(0.5 * dt * w)
        longest = _kernels.STACK_BYTES // (16 * d * d) if not np.any(w) else 1

        def steps(rows):
            return _kernels._cf4_propagators(rows, stage_terms, stage_dtype, dt, d)

        def advance(v, x):
            v = _kernels._unblock(v)
            y = v @ (half_damp * x) @ np.ascontiguousarray(v.conj().swapaxes(1, 2))
            x = y + y.conj().swapaxes(1, 2)
            x *= 0.5 * half_damp
            return x

        def density(x):
            return x

        state = rho
    else:
        longest = _kernels.STACK_BYTES // (8 * operators.dim ** 2)

        def steps(rows):
            return _kernels._operator_steps(rows, operators, dt)

        def advance(v, x):
            return (v @ x[:, :, None])[:, :, 0]

        def density(x):
            return operators.embed(x[:, None])[:, 0]

        state = operators.coordinates(rho)
    states = [density(state)] if 0 in sample_idx else []
    start = 0
    for end in _kernels._segment_ends(n_steps, sample_idx, max(1, longest)):
        u = steps(ctab[2 * start:2 * end + 1])
        state = advance(_kernels._segment_propagators(u, [end - start])[0], state)
        if end in sample_idx:
            states.append(density(state))
        start = end
    states = np.stack(states, axis=1)
    forms = np.einsum("fi,bmij,fj->bmf", form_left.conj(), states, form_right)
    purity = np.einsum("bmij,bmij->bm", states.conj(), states).real
    trace_defect = np.abs(np.trace(states, axis1=2, axis2=3) - 1.0)
    herm_defect = np.linalg.norm(states - states.conj().swapaxes(2, 3), axis=(2, 3))
    return (forms, purity, trace_defect, herm_defect, states if store_rho else states[:, :0],
            density(state))


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
    sample_idx = np.array([0, 7, 23, n_steps], dtype=np.int64)
    return terms, ctab, w, rho0, sample_idx, forms_l, forms_r


@pytest.mark.parametrize("case", ["complex-hermitian", "real-symmetric", "no-dissipator"])
def test_lindblad_backends_agree(case):
    # the numpy kernel takes a real product for real terms and skips an all-zero mask
    rng = np.random.default_rng(42)
    terms, ctab, w, rho0, idx, fl, fr = _tiny_problem(rng)
    if case != "complex-hermitian":
        terms = np.ascontiguousarray(terms.real, dtype=np.complex128)
    if case == "no-dissipator":
        w = np.zeros_like(w)
    out_loops = _lindblad_rk4_loops(terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, True)
    out_numpy = _single_run(_kernels._lindblad_rk4_numpy, terms, ctab, w, rho0.copy(), 0.01, idx,
                            fl, fr, True)
    for a, b in zip(out_loops, out_numpy):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kernel,dissipate", [
    (_kernels._lindblad_rk4_numpy, True),
    (_kernels._lindblad_cf4_numpy, True),
    (_kernels._lindblad_cf4_numpy, False),
], ids=["numpy", "cf4", "cf4-no-dissipator"])
def test_lindblad_batch_form_matches_single_runs(monkeypatch, kernel, dissipate):
    rng = np.random.default_rng(45)
    terms, ctab, w, rho0, idx, fl, fr = _tiny_problem(rng)
    if not dissipate:
        # fused sample intervals: chunks of 5 steps for the batch of three and
        # of 15 for a single run, so the two cut the window differently
        w = np.zeros_like(w)
        monkeypatch.setattr(_kernels, "STACK_BYTES", 16 * 3 * 4 * 4 * 5)
    ctabs = [ctab, 0.5 * ctab, rng.normal(size=ctab.shape)]
    rho0s = [rho0, np.eye(4, dtype=complex) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)]
    batch = kernel(terms, np.ascontiguousarray(np.stack(ctabs, axis=1)), w, np.stack(rho0s),
                   0.01, idx, fl, fr, True)
    for b in range(3):
        single = _single_run(kernel, terms, ctabs[b], w, rho0s[b].copy(), 0.01, idx, fl, fr, True)
        for got, want in zip(batch, single):
            assert got.shape[0] == 3
            np.testing.assert_array_equal(got[b], want)


def _gershgorin_half_width(s):
    centres = np.diagonal(s, axis1=1, axis2=2).real
    radii = np.abs(s).sum(axis=2) - np.abs(centres)
    return 0.5 * ((centres + radii).max(axis=1) - (centres - radii).min(axis=1))


def _hermitian_stack(rng, n, d, complex_entries, widths):
    """n random Hermitian d x d matrices whose Gershgorin half-widths are ``widths``."""
    s = rng.normal(size=(n, d, d))
    if complex_entries:
        s = s + 1j * rng.normal(size=(n, d, d))
    s = s + s.conj().swapaxes(1, 2)
    return s * (widths / _gershgorin_half_width(s))[:, None, None]


def _conjugated(u, x):
    return u @ x @ u.conj().swapaxes(1, 2)


def _unit_hermitian(rng, d):
    """A random complex Hermitian d x d matrix of unit spectral norm."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / np.linalg.norm(x + x.conj().T, 2)


def _entries_and_dims(default_d):
    """(complex_entries, d) cases: real and complex at ``default_d``, then at d = 2 and 3."""
    return pytest.mark.parametrize(
        "complex_entries,d",
        [(c, d) for d in (default_d, 2, 3) for c in (False, True)],
        ids=[f"{kind}{'' if d == default_d else f'-d{d}'}"
             for d in (default_d, 2, 3) for kind in ("real", "complex")])


@_entries_and_dims(6)
def test_exponential_matches_the_eigh_oracle(complex_entries, d):
    # h r from 0 to 100: the closed form for real S at d = 2 and 3, else the
    # series alone up to 2 and squarings beyond; the dropped scalar phase
    # cancels in U X U^H
    rng = np.random.default_rng(50)
    widths = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 47)])
    s = _hermitian_stack(rng, widths.size, d, complex_entries, widths)
    s += rng.normal(size=(widths.size, 1, 1)) * np.eye(d)  # shifted spectra
    x = _unit_hermitian(rng, d)
    u = _exponentials(s, 1.0)
    assert u.dtype == np.complex128
    assert np.abs(_conjugated(u, x) - _conjugated(_eigh_exponentials(s, 1.0), x)).max() <= 1e-12
    assert widths.max() > _kernels._THETA_MAX  # both branches of the series ran
    short = widths <= 1.0
    defect = np.abs(u[short] @ u[short].conj().swapaxes(1, 2) - np.eye(d)).max()
    assert defect <= 1e-14


def test_exponential_of_a_non_finite_matrix_is_nan():
    # the closed form at d = 2 and 3, the series at d = 4
    rng = np.random.default_rng(51)
    for d in (2, 3, 4):
        s = _hermitian_stack(rng, 6, d, False, np.full(6, 0.5))
        s[1, 0, d - 1] = s[1, d - 1, 0] = np.nan
        s[3, 1, 1] = np.inf
        s[4, 0, d - 1] = -np.inf
        u = _exponentials(s, 1.0)
        bad = np.array([False, True, False, True, True, False])
        assert np.isnan(u[bad]).all()
        assert np.isfinite(u[~bad]).all()
        np.testing.assert_array_equal(u[~bad], _exponentials(s[~bad], 1.0))


@_entries_and_dims(5)
def test_exponential_of_each_matrix_does_not_depend_on_its_stack(complex_entries, d):
    # every matrix picks its own degree and squarings, or is taken in closed
    # form, so a stack's first k matrices, or any slice of it, come out with
    # the same bits on their own
    rng = np.random.default_rng(52)
    widths = np.geomspace(1e-3, 20.0, 30)
    s = _hermitian_stack(rng, widths.size, d, complex_entries, rng.permutation(widths))
    full = _exponentials(s, 0.7)
    for k in range(1, widths.size + 1):
        np.testing.assert_array_equal(_exponentials(s[:k], 0.7), full[:k])
    for lo in range(0, widths.size, 7):
        np.testing.assert_array_equal(_exponentials(s[lo:lo + 4], 0.7), full[lo:lo + 4])


def _spectra_stack(rng, spectra, d):
    """Real symmetric d x d matrices with the given eigenvalues, in random eigenbases."""
    out = []
    for values in spectra:
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        out.append((q * np.asarray(values[:d], dtype=float)) @ q.T)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_exponential_of_degenerate_spectra(d):
    # the zero matrix, a triple and double eigenvalues, and splittings of
    # 1e-9: the Newton form stays exact where the eigenvalues meet
    rng = np.random.default_rng(59)
    spectra = [(0.0, 0.0, 0.0), (0.7, 0.7, 0.7), (1.0, 1.0, -2.0), (2.0, -1.0, -1.0),
               (1.0, 1.0 + 1e-9, -3.0), (0.5, 0.5 + 1e-9, 0.5 + 2e-9), (1e-9, 0.0, -1e-9),
               (4.0, -4.0 + 1e-9, -4.0), (3.0, 0.0, -3.0)]
    s = _spectra_stack(rng, spectra, d)
    s[0] = 0.0
    x = _unit_hermitian(rng, d)
    u = _exponentials(s, 1.3)
    np.testing.assert_array_equal(u[0], np.eye(d))
    for oracle in (_eigh_exponentials(s, 1.3), _kernels._unblock(_kernels._exp_series(s, 1.3))):
        assert np.abs(_conjugated(u, x) - _conjugated(oracle, x)).max() <= 1e-14
    assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(d)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_exponential_matches_the_series(d):
    # real S at d = 2 and 3 take the closed form, complex S the series, which is
    # the closed form's oracle: within 1e-14 in conjugation for h r up to 20
    rng = np.random.default_rng(60)
    widths = np.concatenate([[0.0], np.geomspace(1e-6, 20.0, 199)])
    s = _hermitian_stack(rng, widths.size, d, False, widths)
    s += rng.normal(size=(widths.size, 1, 1)) * np.eye(d)
    closed = _kernels._exp_closed_form(s, 1.0)
    np.testing.assert_array_equal(_kernels._exp_blocks(s, 1.0), closed)
    np.testing.assert_array_equal(_kernels._exp_blocks(s + 0j, 1.0), _kernels._exp_series(s + 0j, 1.0))
    x = _unit_hermitian(rng, d)
    series = _kernels._unblock(_kernels._exp_series(s, 1.0))
    assert np.abs(_conjugated(_kernels._unblock(closed), x) - _conjugated(series, x)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_exponential_alone_and_in_a_stack_of_910(d):
    # a member's propagator has the same bits alone as inside the kernel's
    # largest stack at d = 3 (455 steps of two moments)
    rng = np.random.default_rng(61)
    s = _hermitian_stack(rng, 910, d, False, rng.uniform(0.0, 3.0, 910))
    full = _kernels._exp_blocks(s, 1.0)
    for k in (0, 1, 454, 455, 907, 909):
        np.testing.assert_array_equal(_kernels._exp_blocks(s[k:k + 1], 1.0), full[k:k + 1])


@pytest.mark.parametrize("complex_terms,dt", [(False, 0.8), (True, 0.8), (False, 8.0), (True, 8.0)],
                         ids=["real", "complex", "real-squared", "complex-squared"])
def test_cf4_propagators_match_the_eigh_oracle(complex_terms, dt):
    rng = np.random.default_rng(53)
    terms = _tiny_problem(rng)[0]
    if not complex_terms:
        terms = np.ascontiguousarray(terms.real, dtype=np.complex128)
    rows = rng.normal(size=(2 * 5 + 1, 3, terms.shape[0]))  # 5 steps of 3 members
    stage_terms, stage_dtype = _kernels._stage_terms(terms)
    assert stage_dtype is (np.complex128 if complex_terms else np.float64)
    blocks = _kernels._cf4_propagators(rows, stage_terms, stage_dtype, dt, 4)
    assert blocks.shape == (5, 3, 8, 8) and blocks.dtype == np.float64
    u = _kernels._unblock(blocks)
    h = np.einsum("nbk,kij->nbij", rows, terms)
    s_a = (3.0 * h[:-1:2] + 4.0 * h[1::2] - h[2::2]) / 12.0
    s_b = (-h[:-1:2] + 4.0 * h[1::2] + 3.0 * h[2::2]) / 12.0
    if dt > 1.0:  # every exponential is squared
        widths = _gershgorin_half_width(np.concatenate([s_a, s_b]).reshape(-1, 4, 4))
        assert dt * widths.min() > _kernels._THETA_MAX
    want = _eigh_exponentials(s_b, dt) @ _eigh_exponentials(s_a, dt)
    x = np.diag([1.0, -0.5, 0.25, 2.0]).astype(complex) + 0.3
    got = u @ x @ u.conj().swapaxes(-1, -2)
    np.testing.assert_allclose(got, want @ x @ want.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)


def test_cf4_propagator_of_a_non_finite_step_is_nan():
    # a NaN coefficient at the midpoint of step 2 of member 1 makes both of
    # its moments non-finite; every other propagator of the stack keeps the
    # bits it has when built without that step
    rng = np.random.default_rng(55)
    terms = _tiny_problem(rng)[0]
    stage_terms, stage_dtype = _kernels._stage_terms(np.ascontiguousarray(terms.real) + 0j)
    rows = rng.normal(size=(2 * 5 + 1, 3, terms.shape[0]))
    rows[5, 1, 0] = np.nan

    def build(r):
        return _kernels._cf4_propagators(r, stage_terms, stage_dtype, 0.8, 4)

    u = build(rows)
    assert np.isnan(u[2, 1]).all()
    others = np.ones((5, 3), dtype=bool)
    others[2, 1] = False
    assert np.isfinite(u[others]).all()
    np.testing.assert_array_equal(u[:2], build(rows[:5]))
    np.testing.assert_array_equal(u[3:], build(rows[6:]))
    np.testing.assert_array_equal(u[2, [0, 2]], build(rows[4:7, [0, 2]])[0])


@pytest.mark.parametrize("dissipate", [False, True], ids=["no-dissipator", "dissipator"])
@pytest.mark.parametrize("stack_bytes", [None, 16 * 4 * 4 * 5], ids=["whole-intervals", "cut"])
@pytest.mark.parametrize("first_sample", [0, 5], ids=["from-step-0", "from-step-5"])
def test_cf4_kernel_matches_the_step_by_step_oracle(monkeypatch, dissipate, stack_bytes,
                                                    first_sample):
    # sample intervals of 7, 16 and 17 steps (or 18, 16 and 17 from step 5);
    # without dephasing each is one fused product, and with a stack of five
    # steps the intervals are cut every five steps and chunks end mid-interval
    rng = np.random.default_rng(49)
    terms, ctab, w, rho0, idx, fl, fr = _tiny_problem(rng)
    idx[0] = first_sample
    if not dissipate:
        w = np.zeros_like(w)
    if stack_bytes is not None:
        monkeypatch.setattr(_kernels, "STACK_BYTES", stack_bytes)
    want = _lindblad_cf4_steps(terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    got = _single_run(_kernels._lindblad_cf4_numpy, terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    for name, a, b in zip(["forms", "purity", "trace_defect", "herm_defect", "rho_samples",
                           "rho_final"], got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
    assert np.all(got[3] == 0.0)  # Hermitized after every segment


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_operator_kernel_matches_the_step_by_step_oracle(n):
    # case I at 1 kHz on its parity block: the kernel on the operator
    # subspace, with the steps of each sample interval fused, against rho
    # conjugated one step at a time; uneven sample intervals of 1 to 155
    # steps, mid-sweep, where the initial state is far from an eigenstate
    from lmg_adiabat import dynamics
    from lmg_adiabat.model import lmg_sweep_hamiltonian
    from lmg_adiabat.operators import SpinRegister
    from lmg_adiabat.states import density_from_state, target_state

    cfg = preset("I", n, gamma=1e-4)
    reg = SpinRegister(n)
    ham = lmg_sweep_hamiltonian(reg, cfg.eta, cfg.delta, cfg.schedule.omega1,
                                cfg.schedule.omega2)
    ctab = ham.coefficient_table(1800.0 + 0.5 * np.arange(2 * 300 + 1))
    w = dynamics.dephasing_mask(cfg.gammas())
    rho0 = density_from_state(cfg.initial_state())
    (basis,) = dynamics._integration_plans(ham.terms, [range(len(ham.terms))], w, rho0[None])
    assert basis.kind == "operator subspace"
    forms = np.stack([target_state("I", n), cfg.initial_state()]).astype(complex)
    terms, w, rho0, fl, fr = basis.restrict(ham.terms, w, rho0, forms, forms)
    idx = np.array([0, 7, 100, 101, 255, 300])
    want = _lindblad_cf4_steps(terms, ctab, w, rho0, 1.0, idx, fl, fr, True)
    got = _single_run(_kernels._lindblad_cf4_numpy, terms, ctab, w, rho0, 1.0, idx, fl, fr, True,
                      basis.operators)
    for name, a, b in zip(["forms", "purity", "trace_defect", "herm_defect", "rho_samples",
                           "rho_final"], got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
    assert np.all(got[3] == 0.0)  # the embedded states are exactly Hermitian
    assert abs(got[1][-1] - 1.0) > 1e-6  # the dephasing has lowered the purity


_OUTPUTS = ["forms", "purity", "trace_defect", "herm_defect", "rho_samples", "rho_final"]


def _batch_problem(rng, b, n_steps, sample_idx, complex_terms):
    """``b`` members of a 4-dim run without dephasing: own coefficients and initial states."""
    terms, _, w, _, _, fl, fr = _tiny_problem(rng, n_steps=n_steps)
    if not complex_terms:
        terms = np.ascontiguousarray(terms.real, dtype=np.complex128)
    ctab = rng.normal(size=(2 * n_steps + 1, b, terms.shape[0]))
    psi = rng.normal(size=(b, 4)) + 1j * rng.normal(size=(b, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rho0 = psi[:, :, None] * psi[:, None, :].conj()
    return terms, ctab, np.zeros_like(w), rho0, np.array(sample_idx), fl, fr


@pytest.mark.parametrize("b", [1, 13])
@pytest.mark.parametrize("complex_terms", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n_steps,sample_idx,stack_bytes", [
    (120, [0, 1, 2, 5, 9, 30, 31, 64, 100, 119, 120], None),
    (120, list(range(0, 121, 3)), 16 * 4 * 4 * 5),
    (600, [0, 600], None),
    (40, [0, 40], 16 * 4 * 4 * 3),
], ids=["uneven", "groups-span-stacks", "two-samples", "two-samples-small-stacks"])
def test_prefix_pass_matches_the_segment_by_segment_oracle(monkeypatch, b, complex_terms,
                                                           n_steps, sample_idx, stack_bytes):
    # without dephasing: groups of STACK_BYTES / (16 d^2) segments, 512 at
    # d = 4 by default (600 steps between two samples: cut at step 512) and
    # 5 or 3 with small stacks, where a batch of 13 builds one step a stack
    rng = np.random.default_rng(57)
    terms, ctab, w, rho0, idx, fl, fr = _batch_problem(rng, b, n_steps, sample_idx,
                                                       complex_terms)
    if stack_bytes is not None:
        monkeypatch.setattr(_kernels, "STACK_BYTES", stack_bytes)
    got = _kernels._lindblad_cf4_numpy(terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    want = _lindblad_cf4_segments(terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    for name, a, c in zip(_OUTPUTS, got, want):
        assert a.shape == c.shape, name
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-13, err_msg=name)
    assert np.all(got[3] == 0.0)  # every recorded state is Hermitized


@pytest.mark.parametrize("stack_bytes", [None, 8 * 11 * 11 * 4], ids=["default", "small-stacks"])
def test_operator_prefix_pass_matches_the_segment_by_segment_oracle(monkeypatch, stack_bytes):
    # case I, N = 4, at 1 kHz on its 11-dim operator space: groups of
    # STACK_BYTES / (8 r^2) = 135 segments by default, or 4 with small stacks
    from lmg_adiabat import dynamics
    from lmg_adiabat.model import lmg_sweep_hamiltonian
    from lmg_adiabat.operators import SpinRegister
    from lmg_adiabat.states import density_from_state, target_state

    cfg = preset("I", 4, gamma=1e-4)
    ham = lmg_sweep_hamiltonian(SpinRegister(4), cfg.eta, cfg.delta, cfg.schedule.omega1,
                                cfg.schedule.omega2)
    ctab = ham.coefficient_table(1800.0 + 0.5 * np.arange(2 * 500 + 1))
    w = dynamics.dephasing_mask(cfg.gammas())
    rho0 = density_from_state(cfg.initial_state())
    (plan,) = dynamics._integration_plans(ham.terms, [range(len(ham.terms))], w, rho0[None])
    assert plan.kind == "operator subspace" and plan.operators.dim == 11
    forms = np.stack([target_state("I", 4), cfg.initial_state()]).astype(complex)
    terms, w, rho0, fl, fr = plan.restrict(ham.terms, w, rho0, forms, forms)
    if stack_bytes is not None:
        monkeypatch.setattr(_kernels, "STACK_BYTES", stack_bytes)
    idx = np.concatenate([np.arange(0, 500, 10), [500]])
    got = _single_run(_kernels._lindblad_cf4_numpy, terms, ctab, w, rho0, 1.0, idx, fl, fr,
                      True, plan.operators)
    want = tuple(x[0] for x in _lindblad_cf4_segments(terms, ctab[:, None], w, rho0[None], 1.0,
                                                       idx, fl, fr, True, plan.operators))
    for name, a, c in zip(_OUTPUTS, got, want):
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("stack_bytes", [None, 16 * 4 * 4 * 5], ids=["default", "small-stacks"])
def test_dephased_fallback_steps_one_step_at_a_time(monkeypatch, stack_bytes):
    # a dephased run without an operator basis conjugates rho by one step at
    # a time: its states have the bits of the sequential loop, and a
    # member's outputs have the same bits alone and in a batch of 13
    rng = np.random.default_rng(58)
    terms, ctab, _, rho0, idx, fl, fr = _batch_problem(rng, 13, 40, [0, 7, 23, 40], True)
    w = _tiny_problem(rng)[2]
    if stack_bytes is not None:
        monkeypatch.setattr(_kernels, "STACK_BYTES", stack_bytes)
    batch = _kernels._lindblad_cf4_numpy(terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    want = _lindblad_cf4_segments(terms, ctab, w, rho0, 0.3, idx, fl, fr, True)
    np.testing.assert_array_equal(batch[4], want[4])
    np.testing.assert_array_equal(batch[5], want[5])
    for name, a, c in zip(_OUTPUTS[:4], batch, want):
        np.testing.assert_allclose(a, c, rtol=0, atol=1e-13, err_msg=name)
    for k in (0, 6, 12):
        alone = _single_run(_kernels._lindblad_cf4_numpy, terms, ctab[:, k], w, rho0[k], 0.3,
                            idx, fl, fr, True)
        for name, a, c in zip(_OUTPUTS, batch, alone):
            np.testing.assert_array_equal(a[k], c, err_msg=name)


def test_operator_step_of_a_non_finite_hamiltonian_is_nan():
    rng = np.random.default_rng(54)
    c = rng.normal(size=(5, 2, 3))
    c[1, 0, 2] = np.nan
    c[3, 1, 1] = np.inf
    e = _kernels._rotation_exponentials(c, 0.7)
    bad = np.array([False, True, False, True, False])
    assert np.isnan(e[bad]).all() and np.isfinite(e[~bad]).all()
    # exp(h G) of the real antisymmetric G is orthogonal, and each matrix's
    # bits do not depend on its stack
    np.testing.assert_allclose(e[~bad] @ e[~bad].swapaxes(1, 2),
                               np.broadcast_to(np.eye(5), (3, 5, 5)), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(_kernels._rotation_exponentials(c[~bad], 0.7), e[~bad])


@pytest.mark.parametrize("r2,r1", [(3, 8), (1, 4), (0, 5), (6, 2)])
def test_rotation_exponentials_match_the_eigh_oracle(r2, r1):
    # exp(h G) of the real antisymmetric G = [[0, -C^T], [C, 0]] against
    # V diag(exp(i h lambda)) V^H from the eigenvectors of the Hermitian -i G,
    # for ||h C||_F from 1e-3 to 3: past _THETA_MAX the result is squared
    rng = np.random.default_rng(56)
    norms = np.geomspace(1e-3, 3.0, 12)
    c = rng.normal(size=(norms.size, r2, r1))
    scale = np.linalg.norm(c.reshape(norms.size, -1), axis=1) if r2 else np.ones(norms.size)
    c *= (norms / (0.7 * scale))[:, None, None]
    e = _kernels._rotation_exponentials(c, 0.7)
    g = np.zeros((norms.size, r1 + r2, r1 + r2))
    g[:, :r1, r1:] = -c.swapaxes(1, 2)
    g[:, r1:, :r1] = c
    vals, vecs = np.linalg.eigh(-1j * g)
    want = (vecs * np.exp(1j * 0.7 * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    assert np.abs(e - want).max() <= 1e-12


def test_segments_end_at_the_samples_and_at_most_every_longest_steps():
    # the cuts depend on the sample grid and the cap only, never on the batch
    idx = np.array([0, 7, 23, 40])
    assert _kernels._segment_ends(40, idx, 64) == [7, 23, 40]
    assert _kernels._segment_ends(40, idx, 5) == [5, 7, 12, 17, 22, 23, 28, 33, 38, 40]
    assert _kernels._segment_ends(40, idx[1:3], 16) == [7, 23, 39, 40]
    assert _kernels._segment_ends(3, idx[:1], 1) == [1, 2, 3]


def test_segment_products_depend_only_on_their_own_factors():
    # runs of 1..12 factors, alone and next to runs of the same length: each
    # run's product, taken on a tree whose order is set by its length, has
    # the same bits wherever the run sits in the stack, and equals the
    # sequential product U_(L-1) ... U_0 to rounding
    rng = np.random.default_rng(54)
    lengths = [int(n) for n in rng.permutation(np.arange(1, 13))] + [3, 3, 3, 10, 10, 1, 1]
    s = _hermitian_stack(rng, sum(lengths) * 2, 3, True, np.full(sum(lengths) * 2, 1.5))
    u = _exponentials(s, 1.0).reshape(sum(lengths), 2, 3, 3)  # two members
    products = _kernels._segment_propagators(u.copy(), lengths)
    assert products.shape == (len(lengths), 2, 3, 3)
    start = 0
    for k, length in enumerate(lengths):
        run = u[start:start + length]
        alone = _kernels._segment_propagators(run.copy(), [length])[0]
        np.testing.assert_array_equal(products[k], alone)
        np.testing.assert_array_equal(
            products[k, 1], _kernels._segment_propagators(run[:, 1:].copy(), [length])[0, 0])
        sequential = np.broadcast_to(np.eye(3), (2, 3, 3))
        for factor in run:
            sequential = factor @ sequential
        np.testing.assert_allclose(products[k], sequential, rtol=0, atol=1e-14 * length)
        start += length


def test_schrodinger_backends_agree():
    rng = np.random.default_rng(43)
    terms, ctab, _, _, idx, _, _ = _tiny_problem(rng)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    s_loops = _schrodinger_rk4_loops(terms, ctab, psi0.copy(), 0.01, idx)
    s_numpy = _kernels._schrodinger_rk4_numpy(terms, ctab, psi0.copy(), 0.01, idx)
    for a, b in zip(s_loops, s_numpy):
        assert np.allclose(a, b, atol=1e-12)


def test_recorded_quantities_match_direct_evaluation():
    rng = np.random.default_rng(44)
    terms, ctab, w, rho0, idx, fl, fr = _tiny_problem(rng)
    forms, pur, tdef, hdef, rhos, rho_final = _single_run(
        _kernels._lindblad_rk4_numpy, terms, ctab, w, rho0.copy(), 0.01, idx, fl, fr, True
    )
    for k in range(idx.size):
        rho = rhos[k]
        assert np.allclose(forms[k, 0], fl[0].conj() @ rho @ fr[0], atol=1e-13)
        assert pur[k] == pytest.approx(np.real(np.trace(rho @ rho)), abs=1e-12)
        assert tdef[k] == pytest.approx(abs(np.trace(rho) - 1.0), abs=1e-13)
    assert np.allclose(rho_final, rhos[-1])


def test_recording_matches_the_member_by_member_expressions():
    # the batched sampling against the per-member expressions it replaced, on
    # states that are not Hermitian so that every quantity is nonzero
    rng = np.random.default_rng(48)
    _, _, _, _, _, fl, fr = _tiny_problem(rng)
    rho = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    out = _kernels._lindblad_outputs(3, 2, fl.shape[0], 4, True)
    _kernels._record(out, slice(1, 2), rho[:, None], fl.conj(), fr, True)
    forms, pur, tdef, hdef, rhos = out
    for i, r in enumerate(rho):
        np.testing.assert_allclose(forms[i, 1], np.einsum("fi,ij,fj->f", fl.conj(), r, fr),
                                   rtol=0, atol=1e-13)
        assert pur[i, 1] == pytest.approx(np.real(np.vdot(r, r)), rel=1e-14)
        assert tdef[i, 1] == pytest.approx(abs(np.trace(r) - 1.0), rel=1e-14)
        assert hdef[i, 1] == pytest.approx(np.linalg.norm(r - r.conj().T), rel=1e-14)
    np.testing.assert_array_equal(rhos[:, 1], rho)
    assert not np.any(pur[:, 0]) and not np.any(rhos[:, 0])


def test_backend_resolution(monkeypatch):
    assert _kernels.resolve_backend() == "numpy"
    # the old selection variable is not read
    monkeypatch.setenv("LMG_ADIABAT_BACKEND", "numba")
    assert _kernels.resolve_backend() == "numpy"
    assert _kernels.get_kernels().name == "numpy"
    assert _kernels.get_kernels("numpy") is _kernels.get_kernels()
    for name in ("numba", "bogus"):
        with pytest.raises(ValueError):
            _kernels.get_kernels(name)


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
    terms, ctab, w, rho0, idx, fl, fr = _tiny_problem(rng)
    _, _, tdef, hdef, rhos, rho_final = _single_run(
        _kernels._lindblad_cf4_numpy, terms, ctab, w, rho0.copy(), 2.0, idx, fl, fr, True)
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
    terms, _, w, rho0, _, fl, fr = _tiny_problem(rng)
    n_steps, dt = 400, 0.005
    t = (dt / 2.0) * np.arange(2 * n_steps + 1)
    ctab = np.stack([np.cos(t), np.sin(0.7 * t)], axis=1)
    if not dissipate:
        w = np.zeros_like(w)
    idx = np.array([0, 200, 400], dtype=np.int64)
    rk4, cf4 = (_single_run(kernel, terms, ctab, w, rho0.copy(), dt, idx, fl, fr, True)
                for kernel in (_kernels._lindblad_rk4_numpy, _kernels._lindblad_cf4_numpy))
    for got, want in zip(cf4, rk4):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_cf4_is_the_kernel_of_every_backend():
    assert _kernels.get_kernels().lindblad_cf4 is _kernels._lindblad_cf4_numpy


def test_perfbench_seams_exist(perfbench_tracing):
    # perfbench/ rebinds or calls these names of the package
    import inspect

    import lmg_adiabat
    from lmg_adiabat.protocols import disorder_ensemble

    for owner, attr in perfbench_tracing.traced_attributes():
        assert attr in vars(owner), (owner, attr)
    assert {"lindblad_rk4", "schrodinger_rk4"} <= set(_kernels.get_kernels()._fields)
    assert callable(lmg_adiabat.resolve_backend)
    assert isinstance(_kernels.NUMBA_AVAILABLE, bool)
    assert "parallelism" in inspect.signature(disorder_ensemble).parameters


def test_bench_script_workloads_run_on_the_kernel_set():
    # perfbench/run.py::kernel_section loads the script by path and calls these three
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    kern = _kernels.get_kernels()
    lindblad = bench.lindblad_workload(3, t_final=20.0)
    schrodinger = bench.schrodinger_workload(6, t_final=2.0)
    for (kind, _, args), n_steps in [(lindblad, 80), (schrodinger, 100)]:
        assert (args[1].shape[0] - 1) // 2 == n_steps
        assert 0.0 < bench.time_call(getattr(kern, f"{kind}_rk4"), args, repeat=1) < np.inf
    _, batch, _ = bench.batch_workload(t_final=20.0)
    _, block = bench.parity_block(batch)
    _, undamped = bench.parity_block(bench.batch_workload(gamma=0.0, t_final=20.0)[1])
    assert np.any(block[2]) and not np.any(undamped[2])
    np.testing.assert_allclose(kern.lindblad_cf4(*undamped)[-1].sum(axis=0).trace(), 13.0,
                               rtol=0, atol=1e-12)
    sub_dim, sub = bench.invariant_subspace(bench.batch_workload(gamma=0.0, t_final=20.0)[1])
    assert sub_dim == 3 and sub[0].shape[1:] == (3, 3)
    np.testing.assert_allclose(kern.lindblad_cf4(*sub)[-1].sum(axis=0).trace(), 13.0,
                               rtol=0, atol=1e-12)
    build, hams = bench.propagator_workload(block)
    build()
    assert hams.shape == (2 * 20 * 13, 8, 8)
    rho_final = kern.lindblad_rk4(*lindblad[2])[-1][0]
    psi_final = kern.schrodinger_rk4(*schrodinger[2])[-1]
    assert abs(np.trace(rho_final) - 1.0) < 1e-12
    assert abs(np.linalg.norm(psi_final) - 1.0) < 1e-9
