"""Single-spin, collective and bosonic operators on the N-spin register.

Conventions fixed here for the whole project:

* tensor factor j = 1 is the most significant qubit, so the computational
  index of a product state is ``sum_j bit_j * 2**(N - j)``;
* within one factor index 0 is |up> (the NV |m_s = -1> level) and index 1 is
  |down> (|m_s = 0>), hence sigma_z = diag(+1, -1) and sigma_+ = |up><down|;
* the y basis orders |+>_y before |->_y per factor, with
  |+->_y = (|up> +- i |down>)/sqrt(2).

Collective operators follow J_z = sum_j sigma_z^j / 2 and J_+- = sum_j
sigma_+-^j (so J_x and J_y carry the same 1/2 as J_z).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)

_SINGLE = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z, "+": SIGMA_PLUS, "-": SIGMA_MINUS}


@dataclass(frozen=True)
class SpinRegister:
    """A register of N two-level spins (the device supports at most 10)."""

    n_spins: int

    def __post_init__(self) -> None:
        if not 1 <= int(self.n_spins) <= 10:
            raise ValueError(f"n_spins must be in 1..10, got {self.n_spins}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


@dataclass(frozen=True)
class FockSpace:
    """Truncated resonator space spanned by |0> .. |cutoff-1>."""

    cutoff: int

    def __post_init__(self) -> None:
        if int(self.cutoff) < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")


def _kron_all(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def embed_single_spin(reg: SpinRegister, j: int, which: str) -> np.ndarray:
    """I ⊗ … ⊗ sigma_which ⊗ … ⊗ I with the Pauli at factor j (1-based)."""
    if which not in _SINGLE:
        raise ValueError(f"unknown operator {which!r}, expected one of {sorted(_SINGLE)}")
    if not 1 <= j <= reg.n_spins:
        raise IndexError(f"spin index {j} outside 1..{reg.n_spins}")
    eye_left = np.eye(2 ** (j - 1), dtype=np.complex128)
    eye_right = np.eye(2 ** (reg.n_spins - j), dtype=np.complex128)
    return _kron_all([eye_left, _SINGLE[which], eye_right])


def collective_operator(reg: SpinRegister, which: str) -> np.ndarray:
    """Collective spin operator: J_x, J_y, J_z, J_+, J_- or J² (``which="J2"``)."""
    if which == "J2":
        jx = collective_operator(reg, "x")
        jy = collective_operator(reg, "y")
        jz = collective_operator(reg, "z")
        return jx @ jx + jy @ jy + jz @ jz
    factor = 0.5 if which in ("x", "y", "z") else 1.0
    out = np.zeros((reg.dim, reg.dim), dtype=np.complex128)
    for j in range(1, reg.n_spins + 1):
        out += embed_single_spin(reg, j, which)
    return factor * out


_U1_Y = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=np.complex128) / np.sqrt(2.0)
_U1_X = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


@lru_cache(maxsize=2)
def y_basis_transform(reg: SpinRegister) -> np.ndarray:
    """Unitary mapping the computational z basis onto the product y basis.

    Column 2k of the single-factor block is |+>_y and column 2k+1 is |->_y, so
    U |e_i> is the y-basis product state whose sign string is the binary
    expansion of i.  Satisfies U† J_y U = J_z (as built from these factors).
    Built once per register size and read-only; two sizes are kept.
    """
    u = _kron_all([_U1_Y] * reg.n_spins)
    u.flags.writeable = False
    return u


@lru_cache(maxsize=2)
def x_basis_transform(reg: SpinRegister) -> np.ndarray:
    """Same as :func:`y_basis_transform` for the product x basis |+->_x."""
    u = _kron_all([_U1_X] * reg.n_spins)
    u.flags.writeable = False
    return u


def boson_operator(f: FockSpace, which: str) -> np.ndarray:
    """Truncated annihilation ``a``, creation ``adag`` or number ``n`` operator.

    In the truncated space ``adag`` maps the edge state |cutoff-1> to zero, so
    [a, adag] deviates from the identity in the last diagonal entry.
    """
    c = f.cutoff
    a = np.zeros((c, c), dtype=np.complex128)
    for k in range(1, c):
        a[k - 1, k] = np.sqrt(k)
    if which == "a":
        return a
    if which in ("adag", "a†"):
        return a.conj().T
    if which == "n":
        return a.conj().T @ a
    raise ValueError(f"unknown boson operator {which!r}, expected a, adag or n")

