"""Dense complex linear algebra for small matrices, validated at the edge.

Everything downstream (block maps, scaling, spherical moments, form
coefficients) runs on plain square complex numpy arrays.  This module owns
the input checks (square shape, finite entries, Hermitian symmetry within
HERMITIAN_TOL of the largest entry) in one validator, ``_validated``, which
``as_matrix`` and ``ensure_hermitian`` share, and hands the kernels to
LAPACK through numpy.linalg:

* ``det`` is ``np.linalg.det``,
* ``herm_eigvals`` is ``np.linalg.eigvalsh`` on the symmetrized input.
"""

from __future__ import annotations

import numpy as np

#: Inputs must be Hermitian up to this entrywise defect relative to their
#: largest entry; within it they are symmetrized, beyond it rejected.
HERMITIAN_TOL = 1e-10


def _validated(a) -> tuple[np.ndarray, float]:
    """``a`` as a square complex128 array, not copied when it already is
    one (callers only read it), and its largest modulus; other shapes and
    non-finite entries raise ValueError."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # ufunc reductions: ndarray methods add a microsecond of dispatch each.
    # A NaN or inf entry makes top non-finite, and so can finite entries
    # whose modulus overflows: only then does finiteness need its own test
    top = np.maximum.reduce(abs(m), axis=None, initial=0.0)
    if not top < np.inf and not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m, top


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array, without copying one; validate
    shape and finiteness.  The result may be ``a`` itself: read only."""
    return _validated(a)[0]


def ensure_hermitian(a) -> np.ndarray:
    """Return the symmetrized (a + a*)/2, rejecting what ``as_matrix``
    rejects and a defect beyond HERMITIAN_TOL x the largest entry."""
    m, top = _validated(a)
    mh = m.conj().T
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
