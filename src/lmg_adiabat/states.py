"""Product, Dicke and target entangled states; populations and ground bands.

Phase convention: Dicke states carry nonnegative real amplitudes in their
defining product basis.  Every relative phase appearing in the target states
is applied on top of that convention.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInitialStateError,
    InvalidWeightError,
    ParityMismatchError,
)
from .operators import SpinRegister, x_basis_transform, y_basis_transform

CASES = ("I", "II", "III")


def _weight_to_downs(n: int, m: float) -> int:
    """Number of down spins for J_z weight m; validates the weight."""
    downs = n / 2.0 - m
    if abs(m) > n / 2.0 + 1e-12 or abs(downs - round(downs)) > 1e-12:
        raise InvalidWeightError(f"m = {m} is not a valid weight for {n} spins")
    return round(downs)


def dicke_state(n: int, m: float, basis: str = "z") -> np.ndarray:
    """Symmetric (maximal-J) eigenstate of J_z (or J_x/J_y) with eigenvalue m.

    ``basis='z'`` returns the equal-amplitude superposition of all product
    states with N/2 - m down spins; 'x' and 'y' return the same combination in
    the rotated product basis.
    """
    downs = _weight_to_downs(n, m)
    vec = np.zeros(2**n, dtype=np.complex128)
    amp = 1.0 / np.sqrt(comb(n, downs))
    for positions in combinations(range(n), downs):
        idx = sum(1 << (n - 1 - p) for p in positions)
        vec[idx] = amp
    if basis == "z":
        return vec
    if basis == "y":
        return y_basis_transform(SpinRegister(n)) @ vec
    if basis == "x":
        return x_basis_transform(SpinRegister(n)) @ vec
    raise ValueError(f"unknown basis {basis!r}, expected 'z', 'x' or 'y'")


def target_state(case: str, n: int) -> np.ndarray:
    """Target entangled state of one adiabatic transfer case.

    Case I is the GHZ-type superposition of the two polarized y states with
    relative phase e^{i pi J}; case II (odd N) the W-type superposition
    (|m_y=1/2> + i |m_y=-1/2>)/sqrt(2); case III (even N) the single Dicke
    state |m_y=0>.
    """
    case = str(case).upper()
    if case == "I":
        j = n / 2.0
        a = dicke_state(n, j, "y")
        b = dicke_state(n, -j, "y")
        return (a + np.exp(1.0j * np.pi * j) * b) / np.sqrt(2.0)
    if case == "II":
        if n % 2 == 0:
            raise ParityMismatchError(f"case II needs an odd spin number, got {n}")
        return (dicke_state(n, 0.5, "y") + 1.0j * dicke_state(n, -0.5, "y")) / np.sqrt(2.0)
    if case == "III":
        if n % 2 == 1:
            raise ParityMismatchError(f"case III needs an even spin number, got {n}")
        return dicke_state(n, 0.0, "y")
    raise ValueError(f"unknown case {case!r}, expected one of {CASES}")


def target_branches(case: str, n: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Degenerate branch pair underlying a target (second entry None for case III)."""
    case = str(case).upper()
    if case == "I":
        j = n / 2.0
        return dicke_state(n, j, "y"), dicke_state(n, -j, "y")
    if case == "II":
        if n % 2 == 0:
            raise ParityMismatchError(f"case II needs an odd spin number, got {n}")
        return dicke_state(n, 0.5, "y"), dicke_state(n, -0.5, "y")
    if case == "III":
        return target_state(case, n), None
    raise ValueError(f"unknown case {case!r}, expected one of {CASES}")


def ground_band_size(vals: np.ndarray) -> np.ndarray:
    """How many of the ascending eigenvalues ``vals`` (..., d) lie in the ground band.

    The band reaches 1e-3 of the spectral spread above the lowest level, and
    so absorbs the exponentially split ferromagnetic ground doublet
    near the one-axis end of a sweep.
    """
    ground = vals[..., 0]
    tol = 1e-3 * (vals[..., -1] - ground)
    return np.sum(vals <= (ground + tol)[..., None], axis=-1)


def density_from_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    return np.outer(psi, psi.conj())


def population(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi>, clamped into [0, 1] against round-off."""
    rho = np.asarray(rho, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    if rho.shape != (psi.size, psi.size):
        raise DimensionMismatchError(
            f"density matrix {rho.shape} does not match state of dim {psi.size}"
        )
    p = float(np.real(psi.conj() @ rho @ psi))
    return min(max(p, 0.0), 1.0)


def phase_optimized(paa, pbb, cross):
    """The phase-optimized population from <a|rho|a>, <b|rho|b> and <a|rho|b>.

    max over phi of (paa + pbb)/2 + Re(e^{i phi} cross) is (paa + pbb)/2 +
    |cross|, clipped into [0, 1]; the arguments may be arrays of samples.
    """
    return np.clip(0.5 * (paa + pbb) + np.abs(cross), 0.0, 1.0)


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate trace, Hermiticity and positivity; raise on violation.

    The trace defect may reach 1e-9, the Hermiticity defect (Frobenius norm)
    1e-10, and the smallest eigenvalue may go down to -1e-8.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    td = abs(complex(np.trace(rho)) - 1.0)
    hd = float(np.linalg.norm(rho - rho.conj().T))
    if td > 1e-9 or hd > 1e-10:
        raise InvalidInitialStateError(
            f"density matrix invalid: trace defect {td:.3e}, hermiticity defect {hd:.3e}"
        )
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < -1e-8:
        raise InvalidInitialStateError(
            f"density matrix has negative eigenvalue {min_eig:.3e}"
        )
