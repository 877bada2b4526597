"""Dense complex linear algebra helpers used by every other module.

Matrices are plain ``complex128`` numpy arrays.  This module pins the
project-wide conventions (row-major Kronecker index fusion, ascending
eigenvalues, Frobenius-relative tolerances) and the error surface around
the numpy/LAPACK primitives that back them.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError

#: Relative (Frobenius-scaled) tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array, validating the shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with row-major index fusion.

    ``kron(a, b)[i*db + mu, j*db + nu] == a[i, j] * b[mu, nu]``, so the left
    factor is the most significant index.  All tensor-product bases in this
    package are labelled through this convention.
    """
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def frobenius_distance(a, b) -> float:
    """‖a − b‖_F; zero iff the matrices are equal."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(m) -> float:
    """Largest entrywise |M − M†|."""
    m = as_complex_matrix(m)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m, rtol: float = HERMITICITY_RTOL, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex matrix, raising when it is not Hermitian.

    The defect is measured in Frobenius norm against ``rtol * ‖m‖_F`` so the
    check is scale-free.
    """
    m = as_complex_matrix(m)
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > rtol * float(np.linalg.norm(m)):
        raise NonHermitianError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds "
            f"{rtol:.1e} * ||m||_F = {rtol * float(np.linalg.norm(m)):.3e}"
        )
    return m


class EigResult(NamedTuple):
    """Hermitian eigendecomposition; eigenvalues ascending, eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, rtol: float = HERMITICITY_RTOL) -> EigResult:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back real and ascending; column k of ``eigenvectors``
    belongs to ``eigenvalues[k]`` and the columns are orthonormal.  Raises
    :class:`NonHermitianError` when the input fails :func:`require_hermitian`.
    """
    m = require_hermitian(m, rtol)
    vals, vecs = np.linalg.eigh(m)
    return EigResult(vals, vecs)
