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


def ensure_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the symmetrized (a + a*)/2, rejecting inputs beyond ``tol``."""
    m = as_matrix(a)
    defect = hermitian_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.0e}")
    return (m + m.conj().T) / 2.0


def det(a) -> complex:
    """Determinant (LU via LAPACK); singular input gives 0."""
    return complex(np.linalg.det(as_matrix(a)))


def herm_eig(a, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(ensure_hermitian(a, tol))


def herm_eigvals(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(ensure_hermitian(a, tol))


def is_positive_definite(a, tol: float = 1e-12) -> tuple[bool, float]:
    """(min eigenvalue > tol, min eigenvalue) for a Hermitian matrix."""
    vals = herm_eigvals(a)
    lo = float(vals[0])
    return lo > tol, lo


def inv_sqrt_hermitian(a, clamp: float = 1e-14, clamp_rel: float = 1e-8) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix.

    Eigenvalues below ``clamp`` are clamped before inversion, but the clamp
    may only absorb floating-point wobble: if it moves an eigenvalue by more
    than ``clamp_rel`` of the floor itself, the matrix is effectively
    singular and we refuse to continue.
    """
    vals, vecs = herm_eig(a)
    if vals[0] < clamp:
        if (clamp - float(vals[0])) / clamp > clamp_rel:
            raise RuntimeError(
                f"matrix is numerically singular (min eigenvalue {vals[0]:.3e})")
        vals = np.maximum(vals, clamp)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
