"""Hot integration loops: one set of numpy kernels.

Every kernel integrates with a fixed step against a Hamiltonian given as a
stack of constant Hermitian terms plus a coefficient table (rows on the
half-step grid t0, t0+dt/2, t0+dt, ...).

The master equation is integrated by ``lindblad_cf4``
(:func:`_lindblad_cf4_numpy`): a 4th-order commutator-free Magnus step
(Blanes & Moan 2006; Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011))
for H(t), with the sigma_z dephasing applied exactly as elementwise
half-steps exp(W dt / 2).  Its propagators are built for many steps at once
by :func:`_exp_blocks`.  Real moments at d = 2 and 3 (the invariant
subspaces of the gamma-0 presets at N = 3 and 4 and of the criterion-8
members) are exponentiated in closed form (:func:`_exp_closed_form`:
trigonometric eigenvalues and a Newton divided-difference form, elementwise
on vectors of the stack's entries).  Complex moments and the other
dimensions take a truncated Taylor series (:func:`_exp_series`; Paterson &
Stockmeyer, SIAM J. Comput. 2, 60 (1973)) with scaling and squaring
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)) made of
batched small products only, which is also the closed form's test oracle.  Every propagator U = P + iQ is carried as
the real block matrix [[P, -Q], [Q, P]], whose products are those of the
complex matrices: for real terms both methods give P and -Q directly, and
the product of a step's two exponentials, the squarings and the products
that fuse steps are float64 products of 2d x 2d matrices.  Batched, these
cost 0.04-0.13 us each up to d = 4 and 0.3-0.4 us at d = 8, against
0.34-0.84 us for a complex128 product; they are about even at d = 16 and
cost 1.2-1.7 times a complex product at d = 32 and 64
(``benchmarks/bench_kernels.py``, 2 vCPUs); no run of the benchmark
integrates a propagator above d = 5.  A propagator
returns to complex (:func:`_unblock`) only where it meets rho.  Without
dephasing the steps between two samples compose exactly, so their
propagators are first multiplied into one per sample interval on a pairwise
tree (:func:`_segment_propagators`, one product a step).  The intervals are
then taken in groups of a fixed count, and a log-depth scan
(:func:`_prefix_products`) gives each group's prefix products, which carry
the group's starting rho to every sample in one batched conjugation,
Hermitized; this moves the results by rounding only, about 1e-14.  With
dephasing and an :class:`OperatorBasis` of the operator space the run stays
in, the whole step, dephasing included, is a real matrix on that space
(:func:`_operator_steps`, from the series of :func:`_cos_sinc`, summed on
the smaller half of the space only), so the step matrices of a sample
interval are fused and scanned in the same way and only the coordinate
vector of rho is carried.  With dephasing and no such basis, rho is
conjugated by each step's propagator, at two small products a step, one
Python step at a time.  The step is CPTP, so it cannot blow up, and its
size is set by how fast H(t) changes rather than by its norm.

The classical RK4 kernel ``lindblad_rk4`` is the reference the CF4 step is
tested and benchmarked against; ``schrodinger_rk4`` integrates pure states.
The RK4 Lindblad kernel forms each commutator from one product: with
y = h x, -i[h, x] = -i (y - y†), because x h = (h x)† for Hermitian h and x,
so every stage is exactly Hermitian.

The Lindblad kernels integrate a batch: a (2n+1, B, K) table with a
(B, d, d) stack of initial states integrates B members that share the terms,
the dissipator mask and the sampled forms, in one loop, and puts a leading B
axis on every output.  When the terms are real (every LMG term is real
symmetric in the z basis) the stage Hamiltonians stay real.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

# ---------------------------------------------------------------------------
# master-equation and pure-state kernels
# ---------------------------------------------------------------------------

def _real_terms(terms):
    """(K, 2 d^2) float64 view of the terms, for one real product per step.

    A real product of the real coefficients with this view builds the stage
    Hamiltonians without casting the coefficients to complex, which is
    several times slower.
    """
    kk, d, _ = terms.shape
    return np.ascontiguousarray(terms, dtype=np.complex128).reshape(kk, d * d).view(np.float64)


def _stage_terms(terms):
    """(K, d^2) terms for one real product per stage, and the stage dtype.

    Real symmetric terms (every LMG term) give real stage Hamiltonians;
    complex terms go through the float64 view of :func:`_real_terms`.
    """
    kk, d, _ = terms.shape
    if np.any(terms.imag):
        return _real_terms(terms), np.complex128
    return np.ascontiguousarray(terms.real).reshape(kk, d * d), np.float64


def _lindblad_outputs(b, m, n_forms, d, store_rho):
    """Zeroed sample arrays of a batch of b members with m samples each."""
    return (
        np.zeros((b, m, n_forms), dtype=np.complex128),  # forms
        np.zeros((b, m), dtype=np.float64),  # purity
        np.zeros((b, m), dtype=np.float64),  # trace defect
        np.zeros((b, m), dtype=np.float64),  # Hermiticity defect
        np.zeros((b, m if store_rho else 0, d, d), dtype=np.complex128),
    )


def _record(out, rows, rho, left_c, form_right, store_rho):
    """Write the (b, s, d, d) sampled states ``rho`` into ``rows`` of :func:`_lindblad_outputs`."""
    forms, purity, trace_defect, herm_defect, rho_samples = out
    b, s, d, _ = rho.shape
    # per-state products and sums, so each member's numbers are those of its own run
    # <l|rho|r> = sum_ij conj(l_i) rho_ij r_j
    weights = (left_c[:, :, None] * form_right[:, None, :]).reshape(-1, d * d)
    forms[:, rows] = (rho.reshape(b, s, 1, d * d) * weights).sum(axis=-1)
    flat = rho.reshape(b, s, 1, d * d).view(np.float64)
    purity[:, rows] = (flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    trace_defect[:, rows] = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    skew = (rho - rho.conj().swapaxes(-1, -2)).reshape(b, s, 1, d * d).view(np.float64)
    herm_defect[:, rows] = np.sqrt((skew @ skew.swapaxes(-1, -2))[..., 0, 0])
    if store_rho:
        rho_samples[:, rows] = rho


def _lindblad_rk4_numpy(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, store_rho, operators=None):
    """Classical RK4 on rho, the reference of :func:`_lindblad_cf4_numpy`.

    ``ctab`` (2n+1, B, K) holds each member's coefficients on the half-step
    grid and ``rho0`` (B, d, d) its initial state; the members share the
    (K, d, d) ``terms``, the mask ``w`` and the forms <l|rho|r> of the rows
    of ``form_left`` and ``form_right`` (F, d).  Returns the arrays of
    :func:`_lindblad_outputs` and the final states.  ``operators`` only
    names a space the run stays in, and this kernel integrates rho itself.
    """
    kk, d, _ = terms.shape
    n_steps = (ctab.shape[0] - 1) // 2
    b = ctab.shape[1]
    m = sample_idx.shape[0]
    out = _lindblad_outputs(b, m, form_left.shape[0], d, store_rho)
    left_c = form_left.conj()
    stage_terms, stage_dtype = _stage_terms(terms)
    if stage_dtype is np.complex128:
        def product(h, x):
            return h @ x
    else:
        # real stage Hamiltonians: one real product per stage on the float64 view of x
        def product(h, x):
            return (h @ x.view(np.float64)).view(np.complex128)

    dissipate = bool(np.any(w))

    def rhs(h, x):
        # x h = (h x)^H for Hermitian h and x, so each stage is exactly Hermitian
        y = product(h, x)
        k = -1j * (y - y.conj().transpose(0, 2, 1))
        if dissipate:
            k += w * x
        return k

    rho = 0.5 * (rho0 + rho0.conj().transpose(0, 2, 1))
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            _record(out, slice(ptr, ptr + 1), rho[:, None], left_c, form_right, store_rho)
            ptr += 1
        if step == n_steps:
            break

        # one product builds the three stage Hamiltonians of every member
        stages = ctab[2 * step:2 * step + 3].reshape(3 * b, kk) @ stage_terms
        h0, hm, h1 = stages.view(stage_dtype).reshape(3, b, d, d)

        k1 = rhs(h0, rho)
        k2 = rhs(hm, rho + (0.5 * dt) * k1)
        k3 = rhs(hm, rho + (0.5 * dt) * k2)
        k4 = rhs(h1, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return (*out, rho)


#: Largest stack of small matrices built or diagonalized at once (bytes),
#: counted as complex d x d matrices: the CF4 step propagators of a batch
#: (910 steps of one member at d = 3 and 128 at d = 8; their block forms
#: take twice that, and a series exponential holds up to about twenty
#: temporaries of that size), the operator-space step maps as r x r float64
#: (135 steps at r = 11), the fused segments and the scanned groups of one
#: member (the same counts: one step from d = 91 up), and in
#: :mod:`lmg_adiabat.dynamics` the closure's images, the embedded states and
#: the sampled states whose eigenvalues are checked.  Against the series
#: exponentials in 64 KiB stacks, the closed form made the 13-member
#: criterion-8 ensemble take 0.78 of the time in 64 KiB stacks, 0.68 in
#: 128 KiB and 0.84 in 256 KiB (medians of 20 paired in-process jobs,
#: 2 vCPUs); the dephased ``simulate`` jobs at N = 4, whose operator steps
#: take fewer calls in larger stacks, took 0.88 at 128 KiB and 1.02-1.07 at
#: 64 KiB.
STACK_BYTES = 1 << 17
#: Steps of a block, counted from the start of a call.  Where the steps of
#: a sample interval are fused, every block starts its own segments and
#: prefix groups from a state taken as a new call takes it, so a call cut at
#: a multiple of this count gives the same bits as the calls before and
#: after the cut together; a batch whose coefficient table is integrated in
#: several calls (:func:`lmg_adiabat.dynamics._integrate_blocks`) gives each
#: member the bits of its run alone.
BLOCK_STEPS = 500
#: Largest stack of gap-scan Hamiltonians built and diagonalized at once
#: (bytes), in :func:`lmg_adiabat.dynamics._gap_scan`: every sample of a
#: symmetric run's spin-j halves up to N = 10 (1.2 kB a sample there), and of
#: the parity blocks of a disordered run, 401 samples at N = 4, 64 at N = 6
#: and 4 at N = 8.  Where the scan runs beside the integration on a helper
#: thread, ``eigvalsh`` releases the GIL for a whole stack, so larger stacks
#: hand the GIL back and forth less often.  Against the serial scan in 64 KiB
#: stacks, the 13-member criterion-8 ensemble ran 1.04x as fast with 64 KiB
#: stacks on the thread, 1.08x with 256 KiB and 1.23x with 1 MiB (12
#: interleaved jobs each, 2 vCPUs); 1 MiB stacks add 1-3 MB to the peak RSS
#: of a run at N = 6 and 8.
GAP_STACK_BYTES = 1 << 20
#: A batch's gap scan runs beside its integration only when the blocks it
#: diagonalizes (:func:`lmg_adiabat.dynamics._gap_blocks`) at the sample times
#: would take at least this many bytes.  A smaller scan hides too little to
#: pay for sharing the GIL: the 2-7 ms parity-block scan of a single run at
#: N = 4 (0.8 MB) made the ``simulate-cases`` jobs of ``perfbench/run.py``
#: 11% slower on the helper thread (2 of 8 alternating runs faster), while
#: the 13-member criterion-8 ensemble (10.7 MB of full-space matrices, 5.3 MB
#: of parity blocks) and the single N = 6 runs of a sweep (13 MB) gained.  A
#: symmetric run's spin-j halves take 61 kB at N = 4 and 0.47 MB at N = 10
#: over 401 samples, so a symmetric batch of up to eight N = 10 members scans
#: inline.
GAP_OVERLAP_BYTES = 1 << 22

#: Paterson-Stockmeyer layout of the exponential series in Y = X^2: blocks of
#: _WIDTH powers each, _BLOCKS of them, so the series stops at X^23.
_WIDTH, _BLOCKS = 3, 4
#: Largest h r summed without squaring: up to there the four blocks keep the
#: dropped tail below 2^-53, and a further block costs two products of the
#: stack where a squaring costs one of the block form, twice the size.
_THETA_MAX = 2.0


def _series_tables():
    """Block thresholds and block coefficients of exp(-i X) = cos X - i X sin(X) / X.

    Truncated after k + 1 blocks the series keeps X^0 .. X^m, m = 2 _WIDTH (k+1) - 1,
    and its first dropped term is below 2^-54 when ||X|| <= thresholds[k].  Row
    (q, 0) of the coefficients holds the cos terms of block q, row (q, 1) the
    sin X / X terms and row (q, 2) the terms of g(Y) = (cos X - 1) / Y, as
    coefficients of Y^(q _WIDTH) .. Y^(q _WIDTH + _WIDTH - 1).  With B^T g(B B^T) B
    in place of cos(X) - 1 for X^2 = B^T B, the same blocks keep one more term
    of cos X, so the thresholds hold for it too.
    """
    degrees = 2 * _WIDTH * np.arange(1, _BLOCKS + 1) - 1
    thresholds = np.array([(math.factorial(m + 1) * 2.0 ** -54) ** (1.0 / (m + 1))
                           for m in degrees])
    # Y^k terms: cos (-1)^k / (2k)!, sinc (-1)^k / (2k+1)!, g (-1)^(k+1) / (2k+2)!
    coefficients = [[[(-1) ** (k + (part == 2)) / math.factorial(2 * k + part)
                      for k in range(q * _WIDTH, (q + 1) * _WIDTH)]
                     for part in range(3)]
                    for q in range(_BLOCKS)]
    return thresholds, np.array(coefficients)


_BLOCK_THETA, _SERIES = _series_tables()


def _cos_sinc(y, top, parts=2):
    """cos X, sin(X) / X and (cos X - 1) / Y of a stack, from Y = X^2: a (parts, n, d, d) array.

    The first ``parts`` of the three are summed as polynomials in Y by
    Paterson-Stockmeyer: the powers I, Y, .., Y^(_WIDTH - 1) give every
    block's parts from one real product, and the blocks are combined by
    Horner's rule in Y^_WIDTH.  Matrix i keeps blocks 0 .. top[i] only: the
    blocks past its own degree are zeroed, so its bits do not depend on the
    rest of the stack.
    """
    series = _SERIES[:, :parts].reshape(-1, _WIDTH)
    n, d, _ = y.shape
    powers = np.empty((_WIDTH, n, d, d), dtype=y.dtype)  # I, Y, Y^2
    powers[0] = np.eye(d)
    powers[1] = y
    for j in range(2, _WIDTH):
        np.matmul(powers[1], powers[j - 1], out=powers[j])
    y_width = powers[1] @ powers[_WIDTH - 1]
    # every block's cos and sin parts from one real product (complex Y: its float64 view)
    blocks = (series @ powers.reshape(_WIDTH, -1).view(np.float64)).view(y.dtype)
    blocks = blocks.reshape(_BLOCKS, parts, n, d, d)

    last = int(top.max(initial=0))
    sums = blocks[last].copy()
    for q in range(last, -1, -1):
        if q < last:
            sums = y_width @ sums
            sums += blocks[q]
        below = top < q
        if below.any():
            sums[:, below] = 0.0  # the matrix's series starts at a lower block
    return sums


def _scaling(theta):
    """Squarings k, last series block at theta / 2^k and finiteness of each bound ``theta``.

    k is the fewest squarings that bring theta / 2^k to at most _THETA_MAX.
    A non-finite bound is set to 0 in place; :func:`_square` marks its matrix NaN.
    """
    good = np.isfinite(theta)
    theta[~good] = 0.0
    mantissa, exponent = np.frexp(theta / _THETA_MAX)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    top = np.searchsorted(_BLOCK_THETA, np.ldexp(theta, -squarings))
    return squarings, top, good


def _square(e, squarings, good):
    """Square each matrix of the stack ``e`` its own number of times; NaN where not ``good``."""
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        if more.all():
            e = e @ e
        else:
            e[more] = e[more] @ e[more]
    if not good.all():
        e[~good] = np.nan
    return e


def _symmetric_layout(d):
    """Entry layout of the d x d real symmetric matrices of :func:`_exp_closed_form`.

    A matrix is carried as the m = d (d + 1) / 2 rows of its diagonal, then
    its upper off-diagonal entries.  Returns the rows' flat indices; the
    flattened (d, m) gathers ``left`` and ``right`` of the product M N of two
    commuting symmetric matrices, whose row k is the sum over j of row
    left[j, k] of M times row right[j, k] of N; and the (2m, 4 d^2) map of
    the rows of P and Q to the block form [[P, -Q], [Q, P]], whose entries
    are 0 and +-1, so that a product with it only moves values, exactly.
    """
    pairs = [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]
    row = {}
    for k, (i, j) in enumerate(pairs):
        row[i, j] = row[j, i] = k
    m = len(pairs)
    left = np.array([[row[i, j] for i, _ in pairs] for j in range(d)])
    right = np.array([[row[j, k] for _, k in pairs] for j in range(d)])
    scatter = np.zeros((2, m, 2, d, 2, d))
    for i in range(d):
        for j in range(d):
            k = row[i, j]
            scatter[0, k, 0, i, 0, j] = scatter[0, k, 1, i, 1, j] = 1.0
            scatter[1, k, 1, i, 0, j], scatter[1, k, 0, i, 1, j] = 1.0, -1.0
    flat = np.array([i * d + j for i, j in pairs])
    return flat, left.ravel(), right.ravel(), scatter.reshape(2 * m, 4 * d * d)


#: The dimensions whose real exponentials :func:`_exp_blocks` takes in closed form.
_SYMMETRIC_LAYOUTS = {d: _symmetric_layout(d) for d in (2, 3)}


def _exp_closed_form(s, h):
    """exp(-i h S) of every real symmetric matrix of an (n, d, d) stack, d = 2 or 3, up to a phase each.

    The block forms of :func:`_exp_blocks`, from elementwise work on length-n
    vectors: each matrix is carried as the rows of its upper triangle
    (:func:`_symmetric_layout`).  B = h (S - m), with m = tr S / d, drops the
    phase exp(-i h m), which cancels in U rho U^H.  At d = 3 the eigenvalues
    l1 >= l2 >= l3 of B come from the trigonometric method (Kopp, Int. J.
    Mod. Phys. C 19, 523 (2008)): with p^2 = tr B^2 / 6 and
    r = det(B / p) / 2, l1 and l3 are 2 p cos(phi) and 2 p cos(phi + 2 pi / 3),
    phi = arccos(r) / 3, and l2 = -l1 - l3.  exp(-i B) is then exact in
    Newton form on those eigenvalues (Bernstein & So, IEEE Trans. Autom.
    Control 38, 1228 (1993)), f[l1] + f[l1, l2] (B - l1) +
    f[l1, l2, l3] (B - l1)(B - l2) with f(x) = exp(-i x).  Each first
    difference is taken as -i exp(-i (a + b) / 2) sin(delta) / delta,
    delta = (a - b) / 2, which has no cancellation, and l1 - l3 >= 3 p
    bounds the rounding of the second difference against the O(p^2) matrix
    it multiplies; at p = 0 it is its limit -1/2.  At d = 2 the same form on
    the eigenvalues +-t, t^2 = tr B^2 / 2, is cos(t) - i sin(t) / t B.
    Each matrix's bits depend only on that matrix.  Only the upper triangle
    is read.  A matrix that is not finite, or whose tr B^2 overflows
    (entries beyond about 1e154), gets a NaN propagator.
    """
    n, d, _ = s.shape
    flat, left, right, scatter = _SYMMETRIC_LAYOUTS[d]
    parts = np.zeros((2, len(flat), n))  # the rows of P and Q
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        b = s.reshape(n, d * d).T[flat] * h
        b[:d] -= np.add.reduce(b[:d]) / d
        squares = b * b
        trace = np.add.reduce(squares[:d]) + 2.0 * np.add.reduce(squares[d:])  # tr B^2
        if d == 3:
            p = np.sqrt(trace / 6.0)
            a, e, c, u, v, w = b / p
            r = 0.5 * (a * (e * c - w * w) - u * (u * c - w * v) + v * (u * w - e * v))
            phi = np.empty((2, n))  # phi and phi + 2 pi / 3
            # r is NaN at p = 0, which fmin takes to 1: any phi gives l = 0 there
            np.arccos(np.fmax(np.fmin(r, 1.0), -1.0), out=phi[0])
            phi[0] /= 3.0
            np.add(phi[0], 2.0 * np.pi / 3.0, out=phi[1])
            # l1 / 2 and l3 / 2, then (l1 - l2) / 2 and (l2 - l3) / 2, as l2 = -l1 - l3
            halves = np.empty((4, n))
            np.multiply(p, np.cos(phi), out=halves[:2])
            half1, half3 = halves[:2]
            np.add(2.0 * half1, half3, out=halves[2])
            np.subtract(-half1, 2.0 * half3, out=halves[3])
            # the pair means (l1 + l2) / 2 = -l3 / 2 and (l2 + l3) / 2 = -l1 / 2
            # share the sines and cosines of l1 / 2 and l3 / 2
            cos, sin = np.cos(halves[:2]), np.sin(halves)
            sinc = np.divide(sin[2:], halves[2:], out=np.ones((2, n)), where=halves[2:] != 0)
            first = np.empty((2, 2, n))  # f[l1, l2] and f[l2, l3], real and imaginary parts
            np.multiply(sinc, sin[1::-1], out=first[:, 0])
            np.multiply(-sinc, cos[::-1], out=first[:, 1])
            second = np.empty((2, n))  # f[l1, l2, l3]
            second[0], second[1] = -0.5, 0.0
            np.divide(first[0] - first[1], 2.0 * (half1 - half3), out=second, where=p > 0)
            m1 = b.copy()
            m1[:d] -= 2.0 * half1
            b[:d] += 2.0 * (half1 + half3)
            m2 = (m1[left] * b[right]).reshape(d, -1, n)
            np.multiply(first[0][:, None], m1, out=parts)
            parts += second[:, None] * (m2[0] + m2[1] + m2[2])
            # f[l1] = exp(-i l1) from the half angle
            parts[0, :d] += cos[0] * cos[0] - sin[0] * sin[0]
            parts[1, :d] -= 2.0 * sin[0] * cos[0]
        else:
            t = np.sqrt(0.5 * trace)
            parts[0, :d] = np.cos(t)
            parts[1] = -np.divide(np.sin(t), t, out=np.ones(n), where=t != 0) * b
        u = (parts.reshape(-1, n).T @ scatter).reshape(n, 2 * d, 2 * d)
    good = np.isfinite(trace)
    if not good.all():
        u[~good] = np.nan
    return u


def _exp_blocks(s, h):
    """exp(-i h S) of every Hermitian matrix of an (n, d, d) stack, up to a phase each.

    The result is the (n, 2d, 2d) real block form [[P, -Q], [Q, P]] of each
    U = P + iQ, whose products are those of the complex matrices
    (:func:`_unblock` converts it back).  Real S at d = 2 and 3 are taken
    in closed form (:func:`_exp_closed_form`), the rest by the series
    (:func:`_exp_series`).  Each matrix's bits depend only on that matrix,
    and a matrix that is not finite gets a NaN propagator.
    """
    if s.dtype == np.float64 and s.shape[-1] in _SYMMETRIC_LAYOUTS:
        return _exp_closed_form(s, h)
    return _exp_series(s, h)


def _exp_series(s, h):
    """The block forms of :func:`_exp_blocks` from a truncated Taylor series, for any d.

    Each S is shifted by the centre c of its Gershgorin interval
    [c - r, c + r] and scaled by h / 2^k, where k is the fewest squarings
    that bring h r / 2^k to at most _THETA_MAX.  The
    series of exp(-i X) for the scaled X = (S - c) h / 2^k is summed as
    cos X - i X sin(X)/X by :func:`_cos_sinc`, two polynomials in Y = X^2,
    so real S stay in real arithmetic and give P = cos X and
    Q = -X sin(X)/X directly, and the block form is squared k times.  The
    shift multiplies U by the scalar phase exp(-i h c), which cancels in
    U rho U^H, so it is dropped.

    Each matrix takes its own number of blocks and squarings from its own
    bound: the blocks past its own degree are zeroed, so its bits do not
    depend on the rest of the stack.  A matrix that is not finite, or whose
    bound is not, gets a NaN propagator.
    """
    n, d, _ = s.shape
    # a NaN or infinite entry makes its matrix's bound NaN or infinite (inf - inf
    # is NaN), so the bound alone finds the matrices to set to NaN at the end
    with np.errstate(invalid="ignore"):
        # (d, n) C-ordered, so that the bounds are reduced over the outer axis
        diag = np.ascontiguousarray(np.diagonal(s, axis1=1, axis2=2).real.T)
        radius = np.ascontiguousarray(np.einsum("nij->in", np.abs(s))) - np.abs(diag)
        lo = (diag - radius).min(axis=0)
        hi = (diag + radius).max(axis=0)
        theta = h * (0.5 * (hi - lo))
    squarings, top, good = _scaling(theta)
    if not good.all():
        # a non-finite or overflowed bound: no NaN may reach the series
        s = np.where(good[:, None, None], s, 0.0)
        lo[~good] = hi[~good] = 0.0
    scale = np.ldexp(h, -squarings)

    x = s * scale[:, None, None]
    x.reshape(n, d * d)[:, ::d + 1] -= (scale * (0.5 * (hi + lo)))[:, None]
    cos_part, sinc_part = _cos_sinc(x @ x, top)
    u = np.empty((n, 2 * d, 2 * d))
    if s.dtype == np.float64:
        np.matmul(x, sinc_part, out=u[:, :d, d:])  # -Q = X sin(X) / X
    else:
        # U = cos X - i X sin(X) / X = (Re cos + Im sin) + i (Im cos - Re sin)
        sin_part = x @ sinc_part
        u[:, :d, d:] = sin_part.real - cos_part.imag
        cos_part = cos_part.real + sin_part.imag
    u[:, :d, :d] = u[:, d:, d:] = cos_part
    np.negative(u[:, :d, d:], out=u[:, d:, :d])
    return _square(u, squarings, good)


def _unblock(u):
    """Complex matrices P + iQ of a stack of real block forms [[P, -Q], [Q, P]]."""
    d = u.shape[-1] // 2
    out = np.empty(u.shape[:-2] + (d, d), dtype=np.complex128)
    out.real = u[..., :d, :d]
    out.imag = u[..., d:, :d]
    return out


def _simpson_moments(rows):
    """(n, 2, B, K) coefficients of each step's S_a and S_b from half-step rows (2n+1, B, K)."""
    c0, cm, c1 = rows[:-1:2], rows[1::2], rows[2::2]
    return np.stack([3.0 * c0 + 4.0 * cm - c1, 4.0 * cm + 3.0 * c1 - c0], axis=1) / 12.0


def _cf4_propagators(rows, stage_terms, stage_dtype, dt, d):
    """(n, B, 2d, 2d) step propagators U from half-step coefficient rows (2n+1, B, K).

    Each step's Simpson moments S_a = (3 H_0 + 4 H_1/2 - H_1) / 12 and
    S_b = (-H_0 + 4 H_1/2 + 3 H_1) / 12 give U = exp(-i dt S_b) exp(-i dt S_a),
    each exponential from :func:`_exp_blocks`, up to a phase that cancels
    in U rho U^H.  U is the real block form [[P, -Q], [Q, P]] of U = P + iQ,
    so the product of the two exponentials is one float64 product.  A step
    whose Hamiltonian is not finite gets a NaN propagator, which the trace
    check reports.
    """
    moments = _simpson_moments(rows)
    n, _, b, kk = moments.shape
    # a stack of fixed-shape products: each step's bits do not depend on n
    s = (moments.reshape(n, 2 * b, kk) @ stage_terms).view(stage_dtype)
    u = _exp_blocks(s.reshape(n * 2 * b, d, d), dt).reshape(n, 2, b, 2 * d, 2 * d)
    return u[:, 1] @ u[:, 0]  # S_a acts first


class OperatorBasis(NamedTuple):
    """Real orthonormal basis of a space of Hermitian k x k operators, as the kernel's state.

    The space holds the initial states and is mapped into itself by every
    term's commutator X -> -i [T, X] and by the dephasing mask X -> W o X.
    Its first r1 basis operators are real symmetric matrices S_j and the
    other r2 are i A_j with A_j real antisymmetric; an operator is the real
    vector x of its coordinates.  Each array has a leading axis of 1 (shared
    by the batch) or of the batch size.
    """

    #: (G, r1, k^2) vec(S_j), the mask's eigenvectors on the symmetric half.
    symmetric: np.ndarray
    #: (G, r2, k^2) vec(A_j), the mask's eigenvectors on the antisymmetric half.
    antisymmetric: np.ndarray
    #: (G, r1 + r2) the mask's eigenvalues on the basis, in its order.
    rates: np.ndarray
    #: (G, K, r2, r1) coordinates of -i [T_k, S_j] on the i A_l: the generator of term k.
    couplings: np.ndarray

    @property
    def dim(self) -> int:
        return self.rates.shape[-1]

    def coordinates(self, rho):
        """(B, r) coordinates of a (B, k, k) stack of Hermitian operators in the space."""
        b, k, _ = rho.shape
        flat = rho.reshape(b, 1, k * k)
        return np.concatenate([(flat.real @ self.symmetric.swapaxes(-1, -2))[:, 0],
                               (flat.imag @ self.antisymmetric.swapaxes(-1, -2))[:, 0]],
                              axis=-1)

    def embed(self, x):
        """(B, s, k, k) Hermitian operators of the (B, s, r) coordinates ``x``.

        Each operator is a fixed-shape product of its own coordinates, so its
        bits depend on neither the batch nor the number of samples.
        """
        b, s, _ = x.shape
        r1, kk = self.symmetric.shape[1:]
        k = math.isqrt(kk)
        x = x[:, :, None, :]
        rho = np.empty((b, s, 1, kk), dtype=np.complex128)
        rho.real = x[..., :r1] @ self.symmetric[:, None]
        rho.imag = x[..., r1:] @ self.antisymmetric[:, None]
        rho = rho.reshape(b, s, k, k)
        return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def _rotation_exponentials(c, h):
    """exp(h G) of G = [[0, -C^T], [C, 0]] for every C of an (n, r2, r1) stack: (n, r, r).

    With B = h C, Z1 = B^T B and Z2 = B B^T, G^2 = -diag(Z1, Z2), so
    exp(h G) = [[c(Z1), -B^T s(Z2)], [B s(Z1), c(Z2)]], with the cos and
    sinc series c and s of :func:`_cos_sinc`.  Since B s(Z1) = s(Z2) B and
    c(Z1) = I + B^T g(Z2) B, with g(z) = (c(z) - 1) / z, only series of Z2
    are summed, all three in one :func:`_cos_sinc` call; this holds for any
    r1 and r2, and the antisymmetric half is the smaller one on every preset
    (3 of 11 dimensions at N = 4, 16 of 45 at N = 8).  B is scaled by 2^-k,
    where k is the fewest squarings that bring its Frobenius norm, a bound
    on ||h G||_2, to at most _THETA_MAX, and the result is squared k times.
    As in :func:`_exp_series`, each matrix takes its own degree and
    squarings, and a C that is not finite, or whose bound is not, gets a
    NaN exponential.
    """
    n, r2, r1 = c.shape
    b = h * c
    flat = b.reshape(n, r2 * r1)
    theta = np.sqrt(np.einsum("ni,ni->n", flat, flat))
    squarings, top, good = _scaling(theta)  # a C that is not finite has no finite bound
    b[~good] = 0.0  # set to NaN at the end
    # scaling by a power of 2 is exact, so Z1 and Z2 are those of the scaled B
    b = np.ldexp(b, -squarings[:, None, None])
    bt = np.ascontiguousarray(b.swapaxes(1, 2))
    r = r1 + r2
    e = np.empty((n, r, r))
    cos2, sinc2, g2 = _cos_sinc(b @ bt, top, parts=3)
    np.matmul(bt, g2 @ b, out=e[:, :r1, :r1])
    e.reshape(n, r * r)[:, :r1 * (r + 1):r + 1] += 1.0
    np.negative(bt @ sinc2, out=e[:, :r1, r1:])
    np.matmul(sinc2, b, out=e[:, r1:, :r1])
    e[:, r1:, r1:] = cos2
    return _square(e, squarings, good)


def _operator_steps(rows, operators, dt):
    """(n, B, r, r) real step maps on an :class:`OperatorBasis` from half-step rows (2n+1, B, K).

    On the basis the CF4 step E o (U X U^H) o E is D exp(dt G_b) exp(dt G_a) D,
    with G_a and G_b the generators of the Simpson moments S_a and S_b
    (:func:`_rotation_exponentials`) and D = diag(exp(dt lambda / 2)) the
    dephasing half-step, since the basis diagonalizes the mask.  A step
    whose Hamiltonian is not finite gets a NaN map, which the trace check
    reports.
    """
    moments = _simpson_moments(rows)
    n, _, b, kk = moments.shape
    g, _, r2, r1 = operators.couplings.shape
    # a stack of fixed-shape products per member: each step's bits depend on
    # neither n nor the batch
    generators = moments.transpose(0, 2, 1, 3) @ operators.couplings.reshape(g, kk, r2 * r1)
    e = _rotation_exponentials(generators.reshape(n * b * 2, r2, r1), dt)
    ea, eb = e.reshape(n, b, 2, r1 + r2, r1 + r2).transpose(2, 0, 1, 3, 4)
    damp = np.exp(0.5 * dt * operators.rates)[:, None, :]  # (G, 1, r)
    return (eb @ ea) * damp * damp.swapaxes(-1, -2)


def _segment_ends(n_steps, sample_idx, longest):
    """Ends of the fused segments of a run without dephasing or on an operator space.

    A segment runs from one sample step, block start (``BLOCK_STEPS``) or
    step 0 to the next one (or ``n_steps``) and is cut every ``longest``
    steps from its start, so the segments depend on the sample grid and
    ``longest`` only.
    """
    ends, start = [], 0
    blocks = range(BLOCK_STEPS, n_steps, BLOCK_STEPS)
    for cut in np.union1d(sample_idx, [*blocks, n_steps]).tolist():
        if cut > start:
            ends += range(start + longest, cut, longest)
            ends.append(cut)
            start = cut
    return ends


def _segment_propagators(u, lengths):
    """Products U_(L-1) ... U_0 of consecutive runs of an (n, B, d, d) propagator stack.

    The runs have ``lengths`` steps and are multiplied on a pairwise tree, in
    place on ``u``, one small product per factor.  At each level a run's
    nodes sit at ``stride * i``: node 2i + 1 times node 2i (the later factor
    on the left) replaces node 2i, and an odd run's last node is carried up
    where it is.  Each run's product ends at its start, in an order set by
    the run's length alone, so a member's bits depend only on its own
    factors.  Consecutive runs of one length take each level in one product
    of strided views.
    """
    products, start = [], 0
    for length, group in itertools.groupby(lengths):
        runs = len(list(group))
        tree = u[start:start + runs * length].reshape(runs, length, *u.shape[1:])
        stride = 1
        while stride < length:
            pair = 2 * stride
            stop = pair * (-(-length // stride) // 2)  # after the last pair
            tree[:, :stop:pair] = tree[:, stride:stop:pair] @ tree[:, :stop:pair]
            stride = pair
        products.append(tree[:, 0])
        start += runs * length
    return products[0] if len(products) == 1 else np.concatenate(products)


def _segment_stacks(steps, ctab, ends, per_chunk):
    """Yield the (n, B, ., .) segment products of a run, stack by stack.

    ``steps`` builds the step maps of a stack of steps from their rows of
    ``ctab``.  The run is split into the fewest stacks of at most
    ``per_chunk`` steps, their lengths equal up to one step (4000 steps at
    most 910 a stack make five stacks of 800, not four of 910 and one of
    360), since a short stack costs nearly as much as a full one.  Each
    stack yields the products of the segments that end in it
    (:func:`_segment_propagators`), and a segment's unfinished steps wait
    for the next stack.
    """
    n_steps = (ctab.shape[0] - 1) // 2
    count = -(-n_steps // per_chunk)
    pending, first = [], 0
    for k in range(count):
        lo, hi = n_steps * k // count, n_steps * (k + 1) // count
        u = steps(ctab[2 * lo:2 * hi + 1])
        last = bisect.bisect_right(ends, hi, first)
        if last == first:  # no segment ends in this stack
            pending.append(u)
            continue
        if pending:
            u = np.concatenate(pending + [u])
        start = hi - u.shape[0]
        done = ends[first:last]
        yield _segment_propagators(u[:done[-1] - start], np.diff([start] + done).tolist())
        pending = [u[done[-1] - start:]] if hi > done[-1] else []
        first = last


def _group_sizes(ends, longest):
    """Sizes of the prefix groups of the segments that end at ``ends``.

    Each block of ``BLOCK_STEPS`` steps takes its segments ``longest`` at a
    time, counted from its first; the last group of a block may be smaller.
    """
    blocks = np.bincount(np.subtract(ends, 1) // BLOCK_STEPS)
    return [min(longest, count - start) for count in blocks.tolist()
            for start in range(0, count, longest)]


def _groups(stacks, sizes):
    """The items of a stream of stacks, restacked into groups of ``sizes`` items."""
    held, count = [], 0
    sizes = iter(sizes)
    size = next(sizes, 0)
    for stack in stacks:
        held.append(np.ascontiguousarray(stack))  # not a view that keeps its step stack alive
        count += len(stack)
        while size and count >= size:
            joined = np.concatenate(held)
            yield joined[:size]
            held, count = [joined[size:]], count - size
            size = next(sizes, 0)


def _prefix_products(v):
    """Inclusive prefix products V_j ... V_0 of an (n, B, ., .) stack, in place.

    A Hillis-Steele scan (Blelloch, "Prefix sums and their applications",
    1990): after the pass of shift s, entry j holds V_j ... V_(j - 2s + 1)
    (or ... V_0), so ceil(log2 n) batched products make every prefix.
    Entry j is multiplied in an order set by j alone, so its bits depend on
    neither n nor the batch.
    """
    shift = 1
    while shift < len(v):
        v[shift:] = v[shift:] @ v[:-shift]
        shift *= 2
    return v


def _lindblad_cf4_numpy(terms, ctab, w, rho0, dt, sample_idx,
                        form_left, form_right, store_rho, operators=None):
    """Commutator-free 4th-order Magnus step with exact dephasing half-steps.

    Same arguments and outputs as :func:`_lindblad_rk4_numpy`, plus an
    optional :class:`OperatorBasis` of the space the run stays in.  Without
    ``operators`` the state is rho, and a step maps it to
    E o (U (E o rho) U^H) with E = exp(W dt / 2) and U from
    :func:`_cf4_propagators`; every factor is a CPTP map, so the step keeps
    the trace and positivity at any step size.  With ``operators`` the state
    is the real coordinate vector of rho and each step is a real matrix
    (:func:`_operator_steps`) that includes the dephasing; the sampled
    states are embedded back as k x k matrices.

    The step maps are built in stacks of ``STACK_BYTES``.  Without dephasing
    (W = 0), or on ``operators``, the steps between two samples compose
    exactly: the run is cut into segments, one sample interval each, cut
    again every ``longest = STACK_BYTES // step_bytes`` steps
    (:func:`_segment_ends`), and each segment's maps are multiplied into one,
    V_j (:func:`_segment_propagators`).  Every block of ``BLOCK_STEPS``
    steps takes its segments ``longest`` at a time, from a state taken as a
    new call takes it (:func:`_group_sizes`); each group's prefix products
    W_j = V_j ... V_0 (:func:`_prefix_products`) carry the group's starting
    state to every segment end in one batched product, W rho W^H Hermitized
    or W x, and the group's samples are recorded together.  The segments and
    groups follow from d (or r) and the sample grid alone, so a member's bits
    depend on neither its batch, nor where the stacks fall, nor whether the
    run is cut into calls at block starts.  A dephased run without
    ``operators`` conjugates rho by one step's propagator at a time and
    Hermitizes it after each step.
    """
    d = terms.shape[1]
    n_steps = (ctab.shape[0] - 1) // 2
    b = ctab.shape[1]
    out = _lindblad_outputs(b, sample_idx.shape[0], form_left.shape[0], d, store_rho)
    left_c = form_left.conj()
    sampled = np.zeros(n_steps + 1, dtype=bool)
    sampled[sample_idx] = True
    ptr = 0

    def record(states):
        nonlocal ptr
        rows = slice(ptr, ptr + states.shape[1])
        _record(out, rows, density(states), left_c, form_right, store_rho)
        ptr = rows.stop

    if operators is None:
        stage_terms, stage_dtype = _stage_terms(terms)
        step_bytes = 16 * d * d

        def steps(rows):
            return _cf4_propagators(rows, stage_terms, stage_dtype, dt, d)

        def apply(p, x):
            p = _unblock(p).swapaxes(0, 1)
            y = p @ x[:, None] @ p.conj().swapaxes(-1, -2)
            return 0.5 * (y + y.conj().swapaxes(-1, -2))

        def density(states):
            return states
    else:
        step_bytes = 8 * operators.dim ** 2

        def steps(rows):
            return _operator_steps(rows, operators, dt)

        def apply(p, x):
            return (p.swapaxes(0, 1) @ x[:, None, :, None])[..., 0]

        density = operators.embed

    def start(rho):  # the state of a call, or of a block, from its Hermitized rho
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        return rho if operators is None else operators.coordinates(rho)

    state = start(rho0)
    per_chunk = max(1, STACK_BYTES // (b * step_bytes))
    longest = max(1, STACK_BYTES // step_bytes)
    if sampled[0]:
        record(state[:, None])
    first = 0  # the first segment of the next stack or group
    if operators is None and np.any(w):  # one step a segment
        ends = list(range(1, n_steps + 1))
        half_damp = np.exp(0.5 * dt * w)
        scale = 0.5 * half_damp  # 0.5 Hermitizes; E applies the second half-step
        for v in _segment_stacks(steps, ctab, ends, per_chunk):
            v = _unblock(v)
            vh = np.ascontiguousarray(v.conj().swapaxes(-1, -2))
            states = []
            for j in range(v.shape[0]):
                y = v[j] @ (half_damp * state) @ vh[j]
                state = y + y.conj().transpose(0, 2, 1)
                state *= scale
                if sampled[ends[first + j]]:
                    states.append(state)
            if states:
                record(np.stack(states, axis=1))
            first += v.shape[0]
    else:
        ends = _segment_ends(n_steps, sample_idx, longest)
        stacks = _segment_stacks(steps, ctab, ends, per_chunk)
        for v in _groups(stacks, _group_sizes(ends, longest)):
            if first and ends[first - 1] % BLOCK_STEPS == 0:
                state = start(density(state[:, None])[:, 0])
            states = apply(_prefix_products(v), state)
            state = states[:, -1]
            keep = sampled[ends[first:first + v.shape[0]]]
            if keep.any():
                record(states[:, keep])
            first += v.shape[0]

    return (*out, density(state[:, None])[:, 0])


def _schrodinger_rk4_numpy(terms, ctab, psi0, dt, sample_idx):
    d = terms.shape[1]
    n_steps = (ctab.shape[0] - 1) // 2
    m = sample_idx.shape[0]

    psi_samples = np.zeros((m, d), dtype=np.complex128)
    real_terms = _real_terms(terms)
    psi = psi0.copy()
    ptr = 0
    for step in range(n_steps + 1):
        if ptr < m and sample_idx[ptr] == step:
            psi_samples[ptr] = psi
            ptr += 1
        if step == n_steps:
            break
        stages = ctab[2 * step:2 * step + 3] @ real_terms
        h0, hm, h1 = stages.view(np.complex128).reshape(3, d, d)
        k1 = -1j * (h0 @ psi)
        k2 = -1j * (hm @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (hm @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h1 @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return psi_samples, psi


# ---------------------------------------------------------------------------
# the kernel set
# ---------------------------------------------------------------------------

#: numba is not a backend; only the ``env`` record of ``perfbench/run.py`` reads this.
NUMBA_AVAILABLE = False


class Kernels(NamedTuple):
    name: str
    lindblad_rk4: object
    schrodinger_rk4: object
    lindblad_cf4: object


_KERNELS = Kernels("numpy", _lindblad_rk4_numpy, _schrodinger_rk4_numpy, _lindblad_cf4_numpy)


def resolve_backend() -> str:
    """Name of the kernel set every integration runs on: always ``"numpy"``."""
    return _KERNELS.name


def get_kernels(backend: Optional[str] = None) -> Kernels:
    """The kernel set, which ``backend`` may name (``"numpy"``) and nothing else.

    The integrators look the set up here on every run, so tests and
    ``perfbench`` can wrap this function to record or swap kernels.
    """
    if backend not in (None, _KERNELS.name):
        raise ValueError(f"unknown backend {backend!r}; the only kernel set is numpy")
    return _KERNELS
