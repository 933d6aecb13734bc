"""Dense complex linear algebra for small matrices, validated at the edge.

Everything downstream (block maps, scaling, spherical moments, form
coefficients) runs on plain square complex numpy arrays.  This module owns
the input checks (square shape, finite entries, Hermitian symmetry within
HERMITIAN_TOL) and hands the kernels to LAPACK through numpy.linalg:

* ``det`` is ``np.linalg.det``,
* ``herm_eig`` / ``herm_eigvals`` are ``np.linalg.eigh`` /
  ``np.linalg.eigvalsh`` on the symmetrized input.
"""

from __future__ import annotations

import numpy as np

#: Inputs must be Hermitian up to this entrywise defect; within it they are
#: symmetrized, beyond it rejected.
HERMITIAN_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array (copying); validate shape and finiteness."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation from a == a*."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def ensure_hermitian(a) -> np.ndarray:
    """Return the symmetrized (a + a*)/2, rejecting inputs beyond HERMITIAN_TOL."""
    m = as_matrix(a)
    defect = hermitian_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.0e}")
    return (m + m.conj().T) / 2.0


def det(a) -> complex:
    """Determinant (LU via LAPACK); singular input gives 0."""
    return complex(np.linalg.det(as_matrix(a)))


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(ensure_hermitian(a))


def herm_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(ensure_hermitian(a))


def is_positive_definite(a) -> tuple[bool, float]:
    """(min eigenvalue > 1e-12, min eigenvalue) for a Hermitian matrix."""
    lo = float(herm_eigvals(a)[0])
    return lo > 1e-12, lo


def inv_sqrt_hermitian(a) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix.

    Eigenvalues below the floor 1e-14 are clamped to it before inversion,
    but the clamp may only absorb floating-point wobble: if it moves an
    eigenvalue by more than 1e-8 of the floor itself, the matrix is
    effectively singular and we refuse to continue.
    """
    floor = 1e-14
    vals, vecs = herm_eig(a)
    if vals[0] < floor:
        if (floor - float(vals[0])) / floor > 1e-8:
            raise RuntimeError(
                f"matrix is numerically singular (min eigenvalue {vals[0]:.3e})")
        vals = np.maximum(vals, floor)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
