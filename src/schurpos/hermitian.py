"""Dense complex linear algebra for small matrices, validated at the edge.

Everything downstream (block maps, scaling, spherical moments, form
coefficients) runs on plain square complex numpy arrays.  This module owns
the input checks (square shape, finite entries, Hermitian symmetry within
HERMITIAN_TOL of the largest entry) and hands the kernels to LAPACK through
numpy.linalg:

* ``det`` is ``np.linalg.det``,
* ``herm_eigvals`` is ``np.linalg.eigvalsh`` on the symmetrized input,
* ``inv_sqrt_hermitian`` is ``np.linalg.eigh`` on an unchecked ndarray,
  for the Sinkhorn loop, whose marginals are Hermitian by construction.
"""

from __future__ import annotations

import numpy as np

#: Inputs must be Hermitian up to this entrywise defect relative to their
#: largest entry; within it they are symmetrized, beyond it rejected.
HERMITIAN_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array (copying); validate shape and finiteness."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def ensure_hermitian(a) -> np.ndarray:
    """Return the symmetrized (a + a*)/2, rejecting what ``as_matrix``
    rejects and a defect beyond HERMITIAN_TOL x the largest entry."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    mh = m.conj().T
    # ufunc reductions: ndarray methods add a microsecond of dispatch each.
    # A NaN or inf entry makes top non-finite, and so can finite entries
    # whose modulus overflows: only then does finiteness need its own test
    top = np.maximum.reduce(abs(m), axis=None, initial=0.0)
    if not top < np.inf and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    defect = float(np.maximum.reduce(abs(m - mh), axis=None, initial=0.0))
    if defect > HERMITIAN_TOL * top:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} beyond "
                         f"{HERMITIAN_TOL:.0e} x largest entry")
    return (m + mh) / 2.0


def det(a) -> complex:
    """Determinant (LU via LAPACK); singular input gives 0."""
    return complex(np.linalg.det(as_matrix(a)))


def herm_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(ensure_hermitian(a))


def inv_sqrt_hermitian(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite ndarray.

    The caller guarantees Hermitian input (eigh reads its lower triangle);
    the Sinkhorn loop calls this once per half-step.  Eigenvalues below the
    floor 1e-14 x (largest eigenvalue) are clamped to it before inversion,
    but the clamp may only absorb floating-point wobble: if it moves an
    eigenvalue by more than 1e-8 of the floor itself, or the largest
    eigenvalue is not positive, the matrix is effectively singular and we
    refuse to continue.
    """
    vals, vecs = np.linalg.eigh(m)
    floor = 1e-14 * float(vals[-1])
    if not floor > 0 or floor - float(vals[0]) > 1e-8 * floor:
        raise RuntimeError(
            f"matrix is numerically singular (min eigenvalue {vals[0]:.3e})")
    if vals[0] < floor:
        vals = np.maximum(vals, floor)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
