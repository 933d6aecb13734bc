"""Mixed discriminants and spherical trace moments.

The mixed discriminant of an r-tuple of r x r matrices is the full
polarization of the determinant,

    D(A^1, ..., A^r) = (1/r!) sum_{sigma in S_r} det(row i of A^{sigma(i)}),

computed here by the permutation sum; the tests hold its independent
oracles (finite-difference polarization, trace expansions for r = 2, 3).

Spherical integrals of products of quadratic forms xi* U xi over the unit
sphere of C^r reduce to signed-free sums of cycle trace products:

    int prod_k (xi* U_k xi) dmu = (1/(r)_n) sum_{pi in S_n} tr_pi(U_1..U_n)

with (r)_n = r(r+1)...(r+n-1) and tr_pi the product over cycles of pi of
the trace of the word read along the cycle.  The sum is symmetric and
multilinear in the U_k, and on the diagonal it is ``power_moment``,
n! h_n(X) / (r)_n, h_n the complete homogeneous symmetric polynomial of the
eigenvalues of X.  Both kernels are polarizations of their diagonal f,

    F(A_1, ..., A_k) = (1/k!) sum_{P subset [k]} (-1)^(k-|P|) f(sum_{m in P} A_m),

and ``moment_exact`` evaluates it on the 2^n subset sums of
``subset_table``.  The identity is algebraic, so it holds for non-Hermitian
words as well; the tests check it against the literal cycle-trace sum.
``mixed_discriminant``, ``moment_exact`` and ``moment_mc`` (with a standard
error) map one word (k, r, r) to a complex and a stack of words (..., k, r,
r) to an array (...); ``_check_stack`` is the one validator of matrix words.

``principal_sum`` takes f and sums F over the Leibniz terms of every
principal k x k sub-map of a block array.  There every P that leaves out
two positions or more cancels: the permutations that agree on P pair off,
by swapping two left-out positions, with opposite signs and the same sum.
So a term with blocks A_j and T = sum_j A_j needs f at T and T - A_j only.
At k = 1 even that is more than needed: f is linear, each term is one
diagonal block and its T - A layer is the zero matrix, so the sum is f of
the diagonal sum sum_i B_ii, with no difference that could cancel.

``stack_det`` takes the determinants of a stack of k x k matrices as the
Leibniz sum over ``permutation_table`` in array operations for k <= 4, where
LAPACK's one LU call per matrix costs more in dispatch than in arithmetic.

The Monte Carlo route ``moment_mc`` takes Hermitian words and runs in real
arithmetic.  With xi = x + iy, v = (x, y) in R^{2r} and U = A + iB Hermitian,

    xi* U xi = v^T M v,  M = [[A, -B], [B, A]],

exactly symmetric for U exactly Hermitian.  The forms are homogeneous of
degree 2, so each sample divides the product of the forms by |v|^{2n} rather
than normalizing v.  The samples come in blocks: block b is seeded by
seed + b, and its v is the block's sequence of standard normals in row order,
drawn and evaluated one row tile at a time; the words of a stack share the
samples.  The blocks are independent, so a thread pool runs them on every
available core, and their partial sums are added in block order: the result
is the same float for any number of cores.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from functools import lru_cache, partial
from itertools import combinations, permutations

import numpy as np

from .hermitian import ensure_hermitian

#: Longest supported moment word.  The kernel sums 2^n subset sums, not S_n;
#: the cap is the longest word the tests check against the literal
#: cycle-trace sum, and (r)_n stays exactly representable.
MAX_WORD_LEN = 6

#: Largest tuple size for the permutation-sum mixed discriminant.
MAX_RANK = 8

#: Samples per seeded block of ``moment_mc``.
MC_BLOCK = 1 << 16

#: Rows of one tile within a ``moment_mc`` block, so that a tile's forms stay
#: in cache.  Much larger tiles (16384 rows) made r = 4 words slower than the
#: serial loop on two cores: their matmuls start BLAS threads of their own,
#: which compete with the block workers.
MC_TILE = 4096

#: Bytes that one chunk of ``principal_sum`` allocates: m words of k w x w blocks
#: and their k + 1 ``form`` arguments, L leading entries, m L (2k + 1) w^2 16.
#: A ``stack_det`` form gathers w! w entries per argument on top of that, at
#: w <= LEIBNIZ_DET_MAX: 18 against the argument's 9 at w = 3, 96 against 16
#: at w = 4.
LEIBNIZ_CHUNK_BYTES = 1 << 18

#: Largest k at which ``stack_det`` sums Leibniz terms.  At k = 5 the gather
#: is about 2.3x slower than LAPACK and holds 24x the stack.
LEIBNIZ_DET_MAX = 4


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


def stack_det(x: np.ndarray) -> complex | np.ndarray:
    """Determinants of a stack of square matrices x (..., k, k): at k <=
    LEIBNIZ_DET_MAX one gather of the k! permuted diagonals x[..., i, perm(i)],
    one product and one matmul with the signs of ``permutation_table(k)`` for
    the whole stack; beyond it ``np.linalg.det``, one LAPACK LU per matrix."""
    k = x.shape[-1]
    if k > LEIBNIZ_DET_MAX:
        return np.linalg.det(x)
    perms, signs = permutation_table(k)
    return x[..., np.arange(k), perms].prod(-1) @ signs


@lru_cache(maxsize=None)
def leibniz_table(r: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Leibniz terms (rows, cols, signs) of every principal k x k
    sub-map of an r x r block array: term t is the word of blocks (rows[t, m],
    cols[t, m]), m < k, with sign signs[t].  rows[t] = S runs over subsets in
    ``combinations`` order, cols[t] = S[perm] over ``permutation_table(k)``."""
    perms, signs = permutation_table(k)
    subsets = np.array(list(combinations(range(r), k)), dtype=np.intp)
    rows = np.repeat(subsets, len(perms), axis=0)
    cols = subsets[:, perms].reshape(-1, k)
    signs = np.tile(signs, len(subsets))
    rows.flags.writeable = cols.flags.writeable = signs.flags.writeable = False
    return rows, cols, signs


def principal_sum(blocks: np.ndarray, k: int, form) -> complex | np.ndarray:
    """sum_{|S|=k} sum_sigma sgn(sigma) F(B_{S_1 S_sigma(1)}, .., B_{S_k S_sigma(k)})
    per leading index of blocks (..., r, r, w, w), F the polarization of the
    degree-k diagonal ``form`` (..., w, w) -> (...): (1/k!) sum_t sign_t (form(T)
    - sum_j form(T - A_j)), one ``form`` call per chunk within LEIBNIZ_CHUNK_BYTES.

    Block (i, j) enters divided by a_i b_j > 0, the largest modulus in row i
    (over all leading indices) and then in column j of the row-scaled blocks;
    a term over S carries prod_{i in S} a_i b_i, the same for every permutation
    of S, so the lower layers still cancel and no block swamps the others in T.

    At k = 1 the degree-1 ``form`` is linear and no layer is subtracted, so
    the sum is form(sum_i B_ii) in one call, without scales."""
    if k == 1:
        return form(np.trace(blocks, axis1=-4, axis2=-3))
    rows, cols, signs = leibniz_table(blocks.shape[-3], k)
    norms = abs(blocks).max((*range(blocks.ndim - 4), -2, -1), initial=sys.float_info.min)
    a = norms.max(1, keepdims=True)
    scales = a * (norms / a).max(0, keepdims=True, initial=sys.float_info.min)
    blocks = blocks / scales[:, :, None, None]
    weights = scales[rows, cols].prod(-1) * signs
    term_bytes = math.prod(blocks.shape[:-4]) * (2 * k + 1) * blocks.shape[-1] ** 2 * 16
    m = max(1, LEIBNIZ_CHUNK_BYTES // term_bytes)
    total = 0
    for t in range(0, len(signs), m):
        words = blocks[..., rows[t:t + m], cols[t:t + m], :, :]
        args = np.empty_like(words, shape=(*words.shape[:-3], k + 1, *words.shape[-2:]))
        words.sum(-3, out=args[..., 0, :, :])
        np.subtract(args[..., :1, :, :], words, out=args[..., 1:, :, :])
        values = form(args)
        total = total + (values[..., 0] - values[..., 1:].sum(-1)) @ weights[t:t + m]
    return total / math.factorial(k)


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
    # rows[..., k, i] = row i of A^{perms[k, i]}: one (..., r!, r, r) stack
    rows = a[..., perms, np.arange(r), :]
    return stack_det(rows).sum(-1) / math.factorial(r)


def power_moment(x: np.ndarray, n: int) -> complex | np.ndarray:
    """int (xi* X xi)^n dmu = n! h_n(X) / (w)_n per matrix of x (..., w, w), with
    h_n from the power sums p_j = tr X^j by Newton's m h_m = sum_j p_j h_{m-j}."""
    powers = [x]
    while len(powers) < n - 1:
        powers.append(powers[-1] @ x)
    p = [np.einsum("...ii->...", x)] + [np.einsum("...ij,...ji->...", y, x)
                                        for y in powers[:n - 1]]
    h = [1.0, p[0]]
    for m in range(2, n + 1):
        h.append((sum(p[j - 1] * h[m - j] for j in range(1, m)) + p[m - 1]) / m)
    return h[n] * (math.factorial(n) / rising_factorial(x.shape[-1], n))


def moment_exact(mats) -> complex | np.ndarray:
    """Exact spherical moment int prod_k (xi* U_k xi) dmu over S^{2r-1}, per word.

    The polarization of the diagonal ``power_moment`` (module docstring) on
    the 2^n subset sums of the word's factors scaled to largest entry 1 (a
    zero factor keeps scale 1), so that a factor much smaller than the others
    is not lost to cancellation; the result carries the product of the scales.
    """
    a = _check_stack(mats, "moment word")
    n, r = a.shape[-3], a.shape[-1]
    if n > MAX_WORD_LEN:
        raise ValueError(f"moment word length {n} exceeds maximum {MAX_WORD_LEN}")
    rows, signs = subset_table(n)
    scales = abs(a).max((-2, -1))
    scales[scales == 0.0] = 1.0
    x = ((rows / scales[..., None, :]) @ a.reshape(*a.shape[:-2], r * r)).reshape(
        *a.shape[:-3], -1, r, r)
    return power_moment(x, n) @ signs * scales.prod(-1) / math.factorial(n)


def sample_unit_sphere(rng: np.random.Generator, shape, r: int) -> np.ndarray:
    """Unit vectors in C^r, an array of leading shape ``shape`` (an int or a
    tuple), via normalized standard complex Gaussians: all real parts are
    drawn first, then all imaginary parts."""
    size = (*np.atleast_1d(shape), r)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z, axis=-1)[..., None]


def require_int(value, name: str, minimum: int) -> None:
    """Reject ``value`` unless it is an integer >= ``minimum``, before numpy
    sees it: a NaN count would return NaN, an infinite one never return, and
    a fractional one reach numpy as a shape.  A bool is not an integer."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mc_block(words: np.ndarray, samples: int, seed: int, b: int) -> np.ndarray:
    """[sum w, sum w^2] per word over block b of ``moment_mc``'s samples,
    seeded by seed + b, drawn and evaluated one tile of MC_TILE rows at a time."""
    rng = np.random.default_rng(seed + b)
    count = min(MC_BLOCK, samples - b * MC_BLOCK)
    n, dim = words.shape[1:3]
    sums = np.zeros((len(words), 2))
    for start in range(0, count, MC_TILE):
        v = rng.standard_normal((min(MC_TILE, count - start), dim))
        base = np.power(np.einsum("sj,sj->s", v, v), -n)
        for (first, *rest), word_sums in zip(words, sums):
            w = np.einsum("sj,sj->s", v @ first, v)
            w *= base
            for m in rest:
                w *= np.einsum("sj,sj->s", v @ m, v)
            # einsum, not BLAS dot: a threaded BLAS dot sums in an order that
            # depends on its thread count
            word_sums += w.sum(), np.einsum("s,s->", w, w)
    return sums


def moment_mc(mats, samples: int, seed: int) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """Monte Carlo spherical moment of Hermitian factors with standard error:
    (complex, float) for one word (n, r, r), two arrays (...) for a stack of
    words (..., n, r, r).

    Samples are drawn in blocks of MC_BLOCK, block b seeded by seed + b,
    and a block's v = (Re xi, Im xi) is its (count, 2r) standard normal
    sequence in row order: the samples depend only on (seed, samples), not
    on MC_TILE, the number of cores or the other words of a stack, so word k
    of a stack is the same float as its own call.  A thread pool that lives
    only as long as the call maps the blocks over every available core, and
    their partial sums are added in block order.

    Each sample is prod_i v^T M_i v / |v|^{2n} (module docstring); a factor
    that is not Hermitian within HERMITIAN_TOL raises ValueError.
    """
    ms = _check_stack(mats, "moment word")
    require_int(samples, "samples", 1)
    require_int(seed, "seed", 0)
    n, r = ms.shape[-3:-1]
    u = np.reshape([ensure_hermitian(m) for m in ms.reshape(-1, r, r)], (-1, n, r, r))
    words = np.block([[u.real, -u.imag], [u.imag, u.real]])
    n_blocks = -(-samples // MC_BLOCK)
    # imported here: concurrent.futures loads logging, about 0.5 MB of
    # resident memory that callers without Monte Carlo need not pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(_available_cores(), n_blocks)) as pool:
        blocks = list(pool.map(partial(_mc_block, words, samples, seed), range(n_blocks)))
    total = sum(blocks)  # the block sums, added in block order
    mean = total[:, 0] / samples
    var = np.maximum(total[:, 1] - samples * mean ** 2, 0.0) / max(samples - 1, 1)
    stderr = np.sqrt(var / samples).reshape(ms.shape[:-3])
    mean = mean.astype(complex).reshape(ms.shape[:-3])
    return (complex(mean), float(stderr)) if ms.ndim == 3 else (mean, stderr)
