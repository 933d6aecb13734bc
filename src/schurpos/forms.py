"""Pointwise exterior algebra of forms on C^n: Chern and Schur forms,
line-bundle twisting, and weak-positivity sampling.

A form has one bidegree (p, q) and a dense complex coefficient array of
shape (C(n, p), C(n, q)), representing

    u = sum_{I,J} u[I, J] dz^I wedge dzbar^J ,

where rows I and columns J run over the strictly increasing multi-indices
(0-based) in ``itertools.combinations(range(n), .)`` order, and
dz^I = dz^{i_1} ^ ... ^ dz^{i_p}.  Every Koszul sign comes from the memoized
merge tensor ``merge_tensor(n, a, b)``, so ``wedge`` is two matmuls.  The
algebra is total: C(n, p) = 0 for p > n, so a product beyond top degree is a
form with an empty coefficient array, never an error.

Conventions fixed here and relied on everywhere:

* the canonical positive volume is i^n dz^1 ^ dzbar^1 ^ ... ^ dz^n ^ dzbar^n,
  so a top form c dz^{1..n} ^ dzbar^{1..n} has volume coefficient
  tau = c (-i)^n (-1)^{n(n-1)/2};
* a real (p, p)-form satisfies u_{J,I} = (-1)^p conj(u_{I,J});
* the frame is orthonormal at the point, so curvature indices need no
  raising or lowering and (R)^i_j is read off as R[j, i, :, :] up to the
  transpose-invariance of determinants.

Chern forms go through the mixed-discriminant kernel of ``discriminants``.
(1,1)-forms commute, so c_k = (i/2pi)^k sum_{|S|=k} det(Theta[S, S]), and
expanding a wedge of k (1,1)-forms with coefficient matrices A^1 .. A^k gives
the coefficient of dz^I ^ dzbar^J as (-1)^{k(k-1)/2} k! D(A^1[I,J], ..,
A^k[I,J]).  Hence, over k-subsets S of the fiber and I, J of the base,

    c_k[I, J] = (i/2pi)^k (-1)^{k(k-1)/2} k!
                sum_S sum_{sigma in S_k} sgn(sigma) D((R[S_m, S_sigma(m)][I, J])_m),

a signed sum of mixed discriminants of the rank-k sub-blocks of the
curvature: the same Leibniz sum as the double mixed discriminant Phi.  The
principal-minor route ``c3_principal_minors``, ``twist_chern`` and the
Schur determinants run on the form algebra (``wedge``, ``det_forms``)
instead, so they check ``chern_forms`` without sharing its arithmetic.

Weak positivity of a (p,p)-form u tests u ^ i^{q^2} beta ^ betabar, q = n - p,
against decomposable (q,0)-forms beta: a Hermitian form in the Pluecker
vector of beta.  For q <= 1 and q >= n - 1 every (q,0)-form is decomposable,
so the minimum is an eigenvalue; only 2 <= q <= n - 2 is sampled.

Everything is pointwise linear algebra: no d, no global structure.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import combinations

import numpy as np

from .discriminants import (mixed_discriminant, permutation_table, require_count,
                            sample_unit_sphere)
from .posmap import BlockMap

TWO_PI = 2.0 * math.pi

#: Default sample count of ``weak_positivity_min`` (and of ``schurpos schur``).
WEAK_POSITIVITY_SAMPLES = 10_000

#: Samples per seeded block of ``weak_positivity_min``.
WEAK_POSITIVITY_BLOCK = 1 << 12


@cache
def merge_tensor(n: int, a: int, b: int) -> np.ndarray:
    """Koszul signs of the exterior product of a-vectors and b-vectors on C^n.

    E[i, j, k] = +-1 when the i-th a-subset and the j-th b-subset of range(n)
    (``combinations`` order) are disjoint with union the k-th (a+b)-subset,
    the sign that sorts their concatenation; 0 otherwise.  Read-only and
    memoized; its last axis is empty when a + b > n.
    """
    index = {k: c for c, k in enumerate(combinations(range(n), a + b))}
    e = np.zeros((math.comb(n, a), math.comb(n, b), len(index)))
    for x, i in enumerate(combinations(range(n), a)):
        for y, j in enumerate(combinations(range(n), b)):
            if not set(i) & set(j):
                e[x, y, index[tuple(sorted(i + j))]] = (-1) ** sum(s > t for s in i for t in j)
    e.flags.writeable = False
    return e


class Form:
    """Complex (p, q)-form on C^n: coeffs[I, J] multiplies dz^I ^ dzbar^J, with
    rows and columns in ``combinations(range(n), p)`` and ``(.., q)`` order."""

    __slots__ = ("n", "p", "q", "coeffs")

    def __init__(self, n: int, p: int, q: int, coeffs):
        self.n, self.p, self.q = n, p, q
        self.coeffs = np.array(coeffs, dtype=complex)
        shape = (math.comb(n, p), math.comb(n, q))
        if self.coeffs.shape != shape:
            raise ValueError(f"({p},{q})-form on C^{n} needs coefficients of shape "
                             f"{shape}, got {self.coeffs.shape}")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("form has non-finite coefficients")

    @classmethod
    def one(cls, n: int) -> "Form":
        return cls(n, 0, 0, [[1.0]])

    @classmethod
    def zero(cls, n: int, p: int, q: int) -> "Form":
        return cls(n, p, q, np.zeros((math.comb(n, p), math.comb(n, q))))

    def __add__(self, other: "Form") -> "Form":
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError(f"forms differ in (n, p, q): {(self.n, self.p, self.q)} "
                             f"!= {(other.n, other.p, other.q)}")
        return Form(self.n, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "Form":
        return Form(self.n, self.p, self.q, complex(scalar) * self.coeffs)

    __rmul__ = __mul__

    def conjugate(self) -> "Form":
        """Complex conjugate form: swaps I and J with the (-1)^{pq} reorder sign."""
        return Form(self.n, self.q, self.p, (-1) ** (self.p * self.q) * self.coeffs.conj().T)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def __repr__(self) -> str:
        return f"Form(n={self.n}, bidegree=({self.p},{self.q}))"


def max_coeff_diff(u: Form, v: Form) -> float:
    """Largest coefficient discrepancy between two forms of one bidegree."""
    return (u - v).max_abs()


def wedge(u: Form, v: Form) -> Form:
    """Exterior product.  Koszul sign: moving dzbar^{J1} past dz^{I2} gives
    (-1)^{q_u p_v}; the merges I1 + I2 and J1 + J2 contribute the signs of
    ``merge_tensor``, contracted against kron(u.coeffs, v.coeffs), whose rows
    run over (I1, I2) and columns over (J1, J2).

    A product beyond top degree is a form with an empty coefficient array.
    """
    if u.n != v.n:
        raise ValueError("ambient dimensions differ")
    ei, ej = (e.reshape(e.shape[0] * e.shape[1], e.shape[2])
              for e in (merge_tensor(u.n, u.p, v.p), merge_tensor(u.n, u.q, v.q)))
    kron = (u.coeffs[:, None, :, None] * v.coeffs[None, :, None, :]).reshape(len(ei), len(ej))
    coeffs = ei.T @ kron @ ej
    return Form(u.n, u.p + v.p, u.q + v.q, (-1) ** (u.q * v.p) * coeffs)


def _volume_phase(n: int) -> complex:
    """tau / c for the top form c dz^{1..n} ^ dzbar^{1..n}."""
    return (-1.0j) ** n * (-1.0) ** (n * (n - 1) // 2)


def volume_coefficient(u: Form) -> complex:
    """tau with (top part of u) = tau * i^n dz^1 ^ dzbar^1 ^ ... ^ dz^n ^ dzbar^n;
    0 unless u has bidegree (n, n)."""
    if (u.p, u.q) != (u.n, u.n):
        return 0j
    return complex(u.coeffs[0, 0]) * _volume_phase(u.n)


def is_real_pp(u: Form, tol: float = 1e-12) -> bool:
    """Check the reality invariant u_{J,I} = (-1)^p conj(u_{I,J}), that is,
    that u is a (p, p)-form equal to its conjugate."""
    return u.p == u.q and max_coeff_diff(u, u.conjugate()) <= tol


# ---------------------------------------------------------------------------
# Curvature input data
# ---------------------------------------------------------------------------

class CurvatureTensor(BlockMap):
    """Pointwise Chern curvature R[i, j, a, b] = R_{i jbar a bbar} as the block
    map B_ij[a, b] = R[i, j, a, b], which is positive on rank-one inputs
    exactly when R is Griffiths positive.

    ``rank`` (fiber i, j), ``dim`` (base a, b) and ``entries`` read ``r``,
    ``w`` and ``blocks``; the block symmetry is required at construction.
    """

    def __init__(self, rank: int, dim: int, entries):
        super().__init__(entries)
        if self.blocks.shape != (rank, rank, dim, dim):
            raise ValueError(f"entries shape {self.blocks.shape} != {(rank, rank, dim, dim)}")
        self.require_symmetry()

    rank = property(lambda self: self.r)
    dim = property(lambda self: self.w)
    entries = property(lambda self: self.blocks)


def random_griffiths_curvature(rank: int, dim: int, terms: int, eps: float,
                               seed: int) -> CurvatureTensor:
    """Griffiths positive tensor sum_s T^s_{ia} conj(T^s_{jb}) + eps d_ij d_ab.

    The pairing with (v, xi) evaluates to sum_s |sum T^s_{ia} v^i xi^a|^2
    + eps |v|^2 |xi|^2, so positivity holds by construction for eps > 0.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    rng = np.random.default_rng(seed)
    entries = np.zeros((rank, rank, dim, dim), dtype=complex)
    for _ in range(terms):
        t = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
        entries += np.einsum("ia,jb->ijab", t, t.conj())
    entries += eps * np.einsum("ij,ab->ijab", np.eye(rank), np.eye(dim))
    return CurvatureTensor(rank=rank, dim=dim, entries=entries)


def restrict_fiber(tensor: CurvatureTensor, subset) -> CurvatureTensor:
    """Sub-tensor on the chosen fiber indices (0-based, distinct)."""
    idx = list(subset)
    if len(set(idx)) != len(idx) or any(i < 0 or i >= tensor.rank for i in idx):
        raise ValueError(f"invalid fiber subset {subset} for rank {tensor.rank}")
    sub = tensor.entries[np.ix_(idx, idx)]
    return CurvatureTensor(rank=len(idx), dim=tensor.dim, entries=sub)


def curvature_form_matrix(tensor: CurvatureTensor) -> list[list[Form]]:
    """The rank x rank matrix of (1,1)-forms Theta[i][j] = sum R[i,j,a,b] dz^a ^ dzbar^b."""
    return [[Form(tensor.dim, 1, 1, block) for block in row] for row in tensor.entries]


def det_forms(entries: list[list[Form | None]]) -> Form | None:
    """Determinant of a matrix of commuting (even) forms as the Leibniz sum
    sum_sigma sgn(sigma) entries[0][sigma(0)] ^ ... ^ entries[r-1][sigma(r-1)].

    A None entry is a structural zero (as in Jacobi-Trudi): the terms that
    contain one are skipped, and None is returned when every term is.
    """
    perms, signs = permutation_table(len(entries))
    terms = [sign * reduce(wedge, factors)
             for perm, sign in zip(perms.tolist(), signs.tolist())
             if None not in (factors := [row[j] for row, j in zip(entries, perm)])]
    return reduce(Form.__add__, terms) if terms else None


def chern_forms(tensor: CurvatureTensor) -> list[Form]:
    """Chern forms c_0 .. c_r of det(Id + (i/2pi) Theta).

    c_k[I, J] = (i/2pi)^k (-1)^{k(k-1)/2} k! sum_{|S|=k} sum_sigma sgn(sigma)
    D((R[S_m, S_sigma(m)][I, J])_m): one ``mixed_discriminant`` call per k
    over the words of every fiber subset S, base pair (I, J) and sigma.  c_k
    is the (k, k) zero form for k > dim.
    """
    if tensor.rank > 5 or tensor.dim > 5:
        raise ValueError("chern_forms is desk-scale: rank <= 5 and dim <= 5")
    r, n = tensor.rank, tensor.dim
    cs = [Form.one(n)]
    for k in range(1, r + 1):
        if k > n:
            cs.append(Form.zero(n, k, k))
            continue
        perms, signs = permutation_table(k)
        fiber = np.array(list(combinations(range(r), k)))
        ij = np.array(list(combinations(range(n), k)))
        # words[S, I, J, p, m] = R[S_m, S_perms[p, m]][I, J], a k x k matrix
        words = tensor.entries[fiber[:, None, None, None, :, None, None],
                               fiber[:, perms][:, None, None, :, :, None, None],
                               ij[None, :, None, None, None, :, None],
                               ij[None, None, :, None, None, None, :]]
        scale = (1j / TWO_PI) ** k * (-1) ** (k * (k - 1) // 2) * math.factorial(k)
        cs.append(Form(n, k, k, (mixed_discriminant(words) @ signs).sum(0) * scale))
    return cs


def validate_partition(parts, rank: int, dim: int) -> tuple[int, ...]:
    """Pad/validate a partition for Schur forms of a rank-``rank`` input."""
    lam = [int(x) for x in parts]
    if any(x < 0 for x in lam):
        raise ValueError("partition parts must be nonnegative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    if len(lam) > rank and any(x > 0 for x in lam[rank:]):
        raise ValueError(f"partition has more than {rank} nonzero parts")
    lam = (lam + [0] * rank)[:rank]
    if lam and lam[0] > rank:
        raise ValueError(f"partition part {lam[0]} exceeds rank {rank}")
    if sum(lam) > dim:
        raise ValueError(f"partition weight {sum(lam)} exceeds dimension {dim}")
    return tuple(lam)


def schur_form(cs: list[Form], parts) -> Form:
    """P_lambda = det(c_{lambda_i - i + j}) over the even-form ring.

    ``cs`` is the full list c_0 .. c_r; out-of-range Chern indices are the
    structural zeros of ``det_forms``.
    """
    rank = len(cs) - 1
    lam = validate_partition(parts, rank, cs[0].n)
    return det_forms([[cs[k] if 0 <= (k := lam[i] - i + j) <= rank else None
                       for j in range(rank)] for i in range(rank)])


def c3_principal_minors(tensor: CurvatureTensor) -> Form:
    """c_3 as (i/2pi)^3 times the sum of 3x3 principal minors of the curvature matrix."""
    if tensor.rank < 3:
        raise ValueError("c3 needs rank >= 3")
    theta = curvature_form_matrix(tensor)
    total = sum((det_forms([[theta[i][j] for j in sub] for i in sub])
                 for sub in combinations(range(tensor.rank), 3)), Form.zero(tensor.dim, 3, 3))
    return ((1j / TWO_PI) ** 3) * total


def standard_omega(n: int) -> Form:
    """The strongly positive reference (1,1)-form (i/2pi) sum_a dz^a ^ dzbar^a."""
    return Form(n, 1, 1, (1j / TWO_PI) * np.eye(n))


def twist_chern(cs: list[Form], eps: float, omega: Form) -> list[Form]:
    """Chern forms after twisting a rank-3 input by a line bundle of curvature
    -eps * omega:

        c_1 - 3 eps w,
        c_2 - 2 eps w ^ c_1 + 3 eps^2 w^2,
        c_3 - eps w ^ c_2 + eps^2 w^2 ^ c_1 - eps^3 w^3.
    """
    if len(cs) != 4:
        raise ValueError("twist_chern expects rank-3 input (c_0..c_3)")
    n = cs[0].n
    if omega.n != n:
        raise ValueError("omega lives on a different ambient space")
    w2 = wedge(omega, omega)
    w3 = wedge(w2, omega)
    c1 = cs[1] + (-3.0 * eps) * omega
    c2 = cs[2] + (-2.0 * eps) * wedge(omega, cs[1]) + (3.0 * eps * eps) * w2
    c3 = (cs[3] + (-eps) * wedge(omega, cs[2]) + (eps * eps) * wedge(w2, cs[1])
          + (-(eps ** 3)) * w3)
    return [Form.one(n), c1, c2, c3]


# ---------------------------------------------------------------------------
# Weak positivity
# ---------------------------------------------------------------------------

def _pairing_matrix(u: Form, q: int) -> tuple[list[tuple], np.ndarray]:
    """M[K, L] = tau(u ^ i^{q^2} dz^K ^ dzbar^L) over all q-multi-indices.

    For decomposable beta with Pluecker coordinates b, the tested volume
    coefficient is exactly  tau = sum_{K,L} b_K M[K,L] conj(b_L).  Each
    p-subset I meets one q-subset, its complement, with the sign
    e[I, K] = merge_tensor(n, p, q)[I, K, 0], so M = phase e^T u e.
    """
    ks = list(combinations(range(u.n), q))
    e = merge_tensor(u.n, u.p, q)[:, :, 0]
    phase = (1j) ** (q * q) * (-1) ** (u.q * q) * _volume_phase(u.n)
    return ks, phase * (e.T @ u.coeffs @ e)


def _batched_minors(g: np.ndarray, ks: list[tuple]) -> np.ndarray:
    """Pluecker coordinates det(g[:, :, K]) for each K; g has shape (m, q, n).

    One Leibniz gather: g[s, m, K[perms[p, m]]] multiplied over m and summed
    with the signs of ``permutation_table``.
    """
    q = g.shape[1]
    perms, signs = permutation_table(q)
    cols = np.array(ks)[:, perms]
    return g[:, np.arange(q), cols].prod(-1) @ signs


def weak_positivity_is_exact(u: Form) -> bool:
    """Whether every (q,0)-form is decomposable, q = n - p (q <= 1 or q >= n - 1),
    so that ``weak_positivity_min`` is exact rather than sampled."""
    if u.p != u.q:
        raise ValueError(f"form has bidegree ({u.p},{u.q}), not (p,p)")
    return not 2 <= u.n - u.p <= u.n - 2


def _covectors(b: np.ndarray, n: int, q: int) -> np.ndarray:
    """q orthonormal covectors (rows) whose Pluecker vector is the decomposable
    unit b up to a phase, which no volume coefficient sees.

    Contracting beta by dz^{K'}, K' a (q-1)-multi-index, leaves the vector
    sum_j sgn(K', j) b_{K' + j} e_j of its span: the rows of
    merge_tensor(n, q - 1, 1) @ b.  The top q right singular vectors of these
    rows are an orthonormal basis of that span.
    """
    return np.linalg.svd(merge_tensor(n, q - 1, 1) @ b)[2][:q]


def weak_positivity_min(u: Form, samples: int = WEAK_POSITIVITY_SAMPLES,
                        seed: int = 0) -> tuple[float, list[np.ndarray]]:
    """Minimum volume coefficient of u ^ i^{q^2} beta ^ betabar, q = n - p,
    over decomposable beta = beta_1 ^ ... ^ beta_q with unit Pluecker vector
    b, and the covectors beta_i of a minimizer as witness (none for q = 0).

    The coefficient is b^T M conj(b) for the pairing matrix M.  When every
    beta is decomposable (``weak_positivity_is_exact``) the minimum is the
    least eigenvalue of the Hermitian part of M, returned less the roundoff
    margin len(ks) 1e-14 max|lambda|, with b = conj(its eigenvector).  For
    2 <= q <= n - 2 it is the least Rayleigh quotient b^T M conj(b) / |b|^2
    over ``samples`` seeded Gaussian unit covectors, in blocks of
    WEAK_POSITIVITY_BLOCK seeded by seed + block index.

    On the exact path the value is lambda_min - margin: a positive value
    proves weak positivity, a value below -2 x margin disproves it (then
    lambda_min < -margin, beyond roundoff), and a value in between is
    inconclusive.  A sampled value is evidence only; a clearly negative one
    disproves weak positivity through its witness.
    """
    n, q = u.n, u.n - u.p
    exact = weak_positivity_is_exact(u)
    if q < 0:
        raise ValueError(f"bidegree ({u.p},{u.p}) exceeds ambient dimension {n}")
    require_count(samples, "samples")
    if q == 0:
        return float(volume_coefficient(u).real), []
    ks, m = _pairing_matrix(u, q)
    if exact:
        lam, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        margin = len(ks) * 1e-14 * float(np.max(np.abs(lam)))
        return float(lam[0]) - margin, list(_covectors(vecs[:, 0].conj(), n, q))
    best, witness = np.inf, None
    for block, start in enumerate(range(0, samples, WEAK_POSITIVITY_BLOCK)):
        count = min(WEAK_POSITIVITY_BLOCK, samples - start)
        g = sample_unit_sphere(np.random.default_rng(seed + block), (count, q), n)
        b = _batched_minors(g, ks)
        # Rayleigh quotients: the unit covectors of g give |b| <= 1, not |b| = 1
        taus = (np.einsum("sk,kl,sl->s", b, m, b.conj()).real
                / np.einsum("sk,sk->s", b, b.conj()).real)
        k = int(np.argmin(taus))
        if taus[k] < best:
            best, witness = float(taus[k]), g[k].copy()
    return best, list(witness)
