"""Mixed discriminants and spherical trace moments.

The mixed discriminant of an r-tuple of r x r matrices is the full
polarization of the determinant,

    D(A^1, ..., A^r) = (1/r!) sum_{sigma in S_r} det(row i of A^{sigma(i)}),

computed here three independent ways (permutation sum, finite-difference
polarization, trace expansions for r = 2, 3) so each route can serve as an
oracle for the others.

Spherical integrals of products of quadratic forms xi* U xi over the unit
sphere of C^r reduce to signed-free sums of cycle trace products:

    int prod_k (xi* U_k xi) dmu = (1/(r)_n) sum_{pi in S_n} tr_pi(U_1..U_n)

with (r)_n = r(r+1)...(r+n-1) and tr_pi the product over cycles of pi of
the trace of the word read along the cycle.  The sum is symmetric and
multilinear in the U_k, and on the diagonal it is n! h_n(X), h_n the
complete homogeneous symmetric polynomial of the eigenvalues of X.
``moment_exact`` evaluates the full polarization of that diagonal,

    (1/(r)_n) sum_{S subset [n]} (-1)^(n-|S|) h_n(sum_{k in S} U_k),

on the 2^n subset sums of ``subset_table`` (which also drives
``mixed_discriminant_polarized``).  The identity is algebraic, so it holds
for non-Hermitian words as well; the tests check it against the literal
cycle-trace sum.

``mixed_discriminant`` and ``moment_exact`` map one word (k, r, r) to a
complex and a stack of words (..., k, r, r) to an array (...), so the
Leibniz terms of ``phi`` go through one call; ``_check_stack`` is the one
validator of matrix words.

The Monte Carlo route ``moment_mc`` runs in real arithmetic.  With
xi = x + iy, v = (x, y) in R^{2r} and U = A + iB,

    xi* U xi = v^T M v + i v^T N v,
    M = sym([[A, -B], [B, A]]),  N = sym([[B, A], [-A, B]]),

where sym(X) = (X + X^T)/2; N = 0 exactly when U is Hermitian.  The forms
are homogeneous of degree 2, so each sample divides the product of the
forms by |v|^{2n} rather than normalizing v.  Its sample stream is the one
``sample_unit_sphere`` draws: block b is seeded by seed + b, and a block's
first standard normal draw is x and its second y.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from itertools import permutations

import numpy as np

#: Longest supported moment word.  The kernel sums 2^n subset sums, not S_n;
#: the cap is the longest word the tests check against the literal
#: cycle-trace sum, and (r)_n stays exactly representable.
MAX_WORD_LEN = 6

#: Largest tuple size for the permutation-sum mixed discriminant.
MAX_RANK = 8

#: Samples per seeded block of ``moment_mc``.
MC_BLOCK = 1 << 16


def rising_factorial(r: int, n: int) -> int:
    """(r)_n = r (r+1) ... (r+n-1), as an exact integer."""
    return math.prod(range(r, r + n))


@lru_cache(maxsize=None)
def permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(n) in lexicographic order, with their signs
    (inversion parity), as read-only arrays: perms (n!, n), signs (n!,)."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum((1, 2))
    signs = 1 - 2 * (inversions % 2)
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


@lru_cache(maxsize=None)
def subset_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All subsets S of range(n) as read-only arrays: indicator rows (2^n, n),
    row m holding the bits of m, and signs (-1)^(n - |S|) (2^n,)."""
    rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = (-1) ** (n - rows.sum(1))
    rows.flags.writeable = signs.flags.writeable = False
    return rows, signs


def _check_stack(mats, what: str) -> np.ndarray:
    """One word (k, r, r) or a stack of words (..., k, r, r) of finite square
    matrices, as one complex array; ragged input raises in numpy."""
    a = np.asarray(mats, dtype=complex)
    if a.size == 0:
        raise ValueError(f"empty {what}")
    if a.ndim < 3 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} needs square matrices of one dimension, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    return a


def mixed_discriminant(mats) -> complex | np.ndarray:
    """Permutation-sum mixed discriminant of r matrices of dimension r, per word."""
    a = _check_stack(mats, "matrix tuple")
    r = a.shape[-1]
    if a.shape[-3] != r:
        raise ValueError(
            f"mixed discriminant needs {r} matrices of dim {r}, got {a.shape[-3]}")
    if r > MAX_RANK:
        raise ValueError(f"rank {r} exceeds supported maximum {MAX_RANK}")
    perms, _ = permutation_table(r)
    # rows[..., k, i] = row i of A^{perms[k, i]}: one (..., r!, r, r) stack, one LAPACK call
    rows = a[..., perms, np.arange(r), :]
    return np.linalg.det(rows).sum(-1) / math.factorial(r)


def mixed_discriminant_polarized(mats) -> complex:
    """Mixed discriminant via inclusion-exclusion polarization.

    Extracts the coefficient of t^1...t^r in det(sum_k t^k A^k) from the 2^r
    values det(sum_{k in S} A^k); an independent oracle for
    ``mixed_discriminant``.
    """
    ms = _check_stack(mats, "matrix tuple")
    r = len(ms)
    if ms.shape != (r, r, r) or r > 6:
        raise ValueError(f"polarized route needs r <= 6 matrices of dim r, got shape {ms.shape}")
    rows, signs = subset_table(r)
    return signs @ np.linalg.det(np.tensordot(rows, ms, 1)) / math.factorial(r)


def trace_expansion_r2(x, y) -> complex:
    """D(X, Y) for 2 x 2 matrices: (tr X tr Y - tr XY) / 2."""
    mx, my = ms = _check_stack([x, y], "trace_expansion_r2")
    if ms.shape != (2, 2, 2):
        raise ValueError("trace_expansion_r2 needs 2x2 matrices")
    return (np.trace(mx) * np.trace(my) - np.trace(mx @ my)) / 2.0


def trace_expansion_r3(u, v, w) -> complex:
    """D(U, V, W) for 3 x 3 matrices via the six-term trace formula."""
    mu, mv, mw = ms = _check_stack([u, v, w], "trace_expansion_r3")
    if ms.shape != (3, 3, 3):
        raise ValueError("trace_expansion_r3 needs 3x3 matrices")
    tu, tv, tw = np.trace(mu), np.trace(mv), np.trace(mw)
    six_d = (
        tu * tv * tw
        - tu * np.trace(mv @ mw)
        - tv * np.trace(mu @ mw)
        - tw * np.trace(mu @ mv)
        + np.trace(mu @ mv @ mw)
        + np.trace(mu @ mw @ mv)
    )
    return six_d / 6.0


def moment_exact(mats) -> complex | np.ndarray:
    """Exact spherical moment int prod_k (xi* U_k xi) dmu over S^{2r-1}, per word.

    The polarization of the diagonal n! h_n (module docstring): Newton's
    identity m h_m = sum_{j=1..m} p_j h_{m-j} turns the power sums
    p_j = tr X^j of the 2^n subset sums X of the word into h_n.
    """
    a = _check_stack(mats, "moment word")
    n, r = a.shape[-3], a.shape[-1]
    if n > MAX_WORD_LEN:
        raise ValueError(f"moment word length {n} exceeds maximum {MAX_WORD_LEN}")
    rows, signs = subset_table(n)
    x = (rows @ a.reshape(*a.shape[:-2], r * r)).reshape(*a.shape[:-3], -1, r, r)
    powers = [x]
    while len(powers) < n - 1:
        powers.append(powers[-1] @ x)
    p = [np.einsum("...ii->...", x)] + [np.einsum("...ij,...ji->...", y, x)
                                        for y in powers[:n - 1]]
    h = [1.0]
    for m in range(1, n + 1):
        h.append(sum(p[j - 1] * h[m - j] for j in range(1, m + 1)) / m)
    return h[n] @ signs / rising_factorial(r, n)


def sample_unit_sphere(rng: np.random.Generator, shape, r: int) -> np.ndarray:
    """Unit vectors in C^r, an array of leading shape ``shape`` (an int or a
    tuple), via normalized standard complex Gaussians: all real parts are
    drawn first, then all imaginary parts."""
    size = (*np.atleast_1d(shape), r)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z, axis=-1)[..., None]


def require_count(value, name: str) -> None:
    """Reject a sample count that is not an integer >= 1: a NaN count would
    return NaN, an infinite one never return, and a fractional one reach
    numpy as a shape."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"need at least one sample: {name} must be an integer "
                         f">= 1, got {value!r}")


def _real_forms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Real symmetric M, N with xi* U xi = v^T M v + i v^T N v, v = (Re xi, Im xi).

    N is returned as None when it vanishes, which it does exactly when U is
    Hermitian.
    """
    a, b = u.real, u.imag
    m = np.block([[a, -b], [b, a]])
    n = np.block([[b, a], [-a, b]])
    n = (n + n.T) / 2.0
    return (m + m.T) / 2.0, (n if n.any() else None)


def moment_mc(mats, samples: int, seed: int) -> tuple[complex, float]:
    """Monte Carlo spherical moment with standard error.

    Samples are drawn in blocks of MC_BLOCK, block b seeded by seed + b, so
    the result depends only on (seed, samples) and a parallel reduction over
    blocks would reproduce the serial one exactly.

    The stream is unchanged from ``sample_unit_sphere``: a block's first
    standard normal draw is Re xi and its second Im xi.  The arithmetic is
    real: with v = (Re xi, Im xi), xi* U xi = v^T M v + i v^T N v, and each
    sample is prod_i (v^T M_i v + i v^T N_i v) / |v|^{2n}, so v is never
    normalized.  Hermitian factors (N = 0) keep the product real.
    """
    ms = _check_stack(mats, "moment word")
    if ms.ndim != 3:
        raise ValueError(f"moment_mc takes one word (n, r, r), got shape {ms.shape}")
    require_count(samples, "samples")
    r = ms.shape[-1]
    forms = [_real_forms(m) for m in ms]
    real = all(n is None for _, n in forms)
    # buffers of one full block, reused by every block as views [:count]
    size = min(MC_BLOCK, samples)
    half = np.empty((size, r))
    v = np.empty((size, 2 * r))
    vm = np.empty((size, 2 * r))
    q = np.empty((2, size))
    w = np.empty(size, dtype=float if real else complex)
    sum_w = 0.0
    sum_abs2 = 0.0
    done = 0
    block = 0
    while done < samples:
        count = min(MC_BLOCK, samples - done)
        rng = np.random.default_rng(seed + block)
        hb, vb, vmb, wb = half[:count], v[:count], vm[:count], w[:count]
        q_re, q_im = q[0, :count], q[1, :count]
        rng.standard_normal(out=hb)
        vb[:, :r] = hb
        rng.standard_normal(out=hb)
        vb[:, r:] = hb
        np.einsum("sj,sj->s", vb, vb, out=q_re)
        np.power(q_re, -len(ms), out=wb)
        for m, n in forms:
            np.matmul(vb, m, out=vmb)
            np.einsum("sj,sj->s", vmb, vb, out=q_re)
            if n is None:
                wb *= q_re
            else:
                np.matmul(vb, n, out=vmb)
                np.einsum("sj,sj->s", vmb, vb, out=q_im)
                wb *= q_re + 1j * q_im
        sum_w += wb.sum()
        sum_abs2 += float(np.vdot(wb, wb).real)
        done += count
        block += 1
    mean = complex(sum_w) / samples
    if samples == 1:
        return mean, 0.0
    var = max(sum_abs2 - samples * abs(mean) ** 2, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)
