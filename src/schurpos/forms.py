"""Pointwise exterior algebra of forms on C^n: Chern and Schur forms,
line-bundle twisting, and weak-positivity sampling.

A form is a sparse table of coefficients over pairs (I, J) of strictly
increasing multi-indices (0-based), representing

    u = sum_{I,J} u_{I,J} dz^I wedge dzbar^J ,

where dz^I = dz^{i_1} ^ ... ^ dz^{i_p}.  All Koszul signs are resolved at
construction time, so stored keys are always increasing.  Mixed-bidegree
content is allowed in one Form (the total Chern form is inhomogeneous);
operations that need a pure (p, p) form validate it.  The algebra is total:
a product beyond top degree is the zero form, never an error.

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

import cmath
import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product

import numpy as np

from .discriminants import (mixed_discriminant, permutation_table,
                            sample_unit_sphere, signed_permutations)

#: Hermitian pair symmetry R[i,j,a,b] = conj(R[j,i,b,a]) must hold within this
#: multiple of the largest entry.
CURVATURE_SYMMETRY_TOL = 1e-12

TWO_PI = 2.0 * math.pi

#: Samples per seeded block of ``weak_positivity_min``.
WEAK_POSITIVITY_BLOCK = 1 << 12


@cache
def merge_sign(a: tuple, b: tuple) -> tuple[int, tuple] | tuple[None, tuple]:
    """Sign to interleave two increasing index tuples, or (None, ()) on overlap.

    Memoized: the keys are pairs of index subsets, at most 4^n of them.
    """
    inv = 0
    for x in a:
        for y in b:
            if x == y:
                return None, ()
            if x > y:
                inv += 1
    return (-1 if inv % 2 else 1), tuple(sorted(a + b))


class Form:
    """Sparse complex form on C^n keyed by (I, J) increasing multi-indices."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        self.coeffs = dict(coeffs) if coeffs else {}
        if not all(map(cmath.isfinite, self.coeffs.values())):
            raise ValueError("form has non-finite coefficients")

    @classmethod
    def one(cls, n: int) -> "Form":
        return cls(n, {((), ()): 1.0 + 0.0j})

    @classmethod
    def zero(cls, n: int) -> "Form":
        return cls(n)

    def __add__(self, other: "Form") -> "Form":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0j) + v
        return Form(self.n, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "Form":
        s = complex(scalar)
        return Form(self.n, {k: s * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def bidegrees(self) -> set[tuple[int, int]]:
        return {(len(i), len(j)) for i, j in self.coeffs}

    def conjugate(self) -> "Form":
        """Complex conjugate form: swaps I and J with the (-1)^{pq} reorder sign."""
        return Form(self.n, {(j, i): (-1.0 if len(i) * len(j) % 2 else 1.0) * np.conj(v)
                             for (i, j), v in self.coeffs.items()})

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        return f"Form(n={self.n}, terms={len(self.coeffs)}, degrees={sorted(self.bidegrees())})"


def max_coeff_diff(u: Form, v: Form) -> float:
    """Largest coefficient discrepancy between two forms."""
    keys = set(u.coeffs) | set(v.coeffs)
    return max((abs(u.coeffs.get(k, 0.0j) - v.coeffs.get(k, 0.0j)) for k in keys),
               default=0.0)


def wedge(u: Form, v: Form) -> Form:
    """Exterior product.  Koszul sign: moving dzbar^{J1} past dz^{I2} gives
    (-1)^{|J1| |I2|}, then both index merges contribute their sorting signs.

    Term pairs beyond top degree vanish by index overlap, so a product beyond
    top degree is the zero form.
    """
    if u.n != v.n:
        raise ValueError("ambient dimensions differ")
    out: dict = {}
    for (i1, j1), a in u.coeffs.items():
        sgn_flip = -1.0 if len(j1) % 2 else 1.0
        for (i2, j2), b in v.coeffs.items():
            si, mi = merge_sign(i1, i2)
            if si is None:
                continue
            sj, mj = merge_sign(j1, j2)
            if sj is None:
                continue
            s = si * sj * (sgn_flip if len(i2) % 2 else 1.0)
            key = (mi, mj)
            out[key] = out.get(key, 0.0j) + s * a * b
    return Form(u.n, out)


def volume_coefficient(u: Form) -> complex:
    """tau with (top part of u) = tau * i^n dz^1 ^ dzbar^1 ^ ... ^ dz^n ^ dzbar^n."""
    n = u.n
    full = tuple(range(n))
    c = u.coeffs.get((full, full), 0.0j)
    return c * (-1.0j) ** n * (-1.0) ** (n * (n - 1) // 2)


def is_real_pp(u: Form, tol: float = 1e-12) -> bool:
    """Check the reality invariant u_{J,I} = (-1)^p conj(u_{I,J})."""
    for (i, j), v in u.coeffs.items():
        if len(i) != len(j):
            return False
        sign = -1.0 if len(i) % 2 else 1.0
        if abs(u.coeffs.get((j, i), 0.0j) - sign * np.conj(v)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Curvature input data
# ---------------------------------------------------------------------------

@dataclass
class CurvatureTensor:
    """Pointwise Chern curvature R[i, j, a, b] = R_{i jbar a bbar}.

    rank indexes the fiber (i, j), dim the base (a, b).  Hermitian symmetry
    R[i, j, a, b] = conj(R[j, i, b, a]) is required at construction.
    """

    rank: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        expected = (self.rank, self.rank, self.dim, self.dim)
        if self.rank < 1 or self.dim < 1:
            raise ValueError(f"rank and dim must be at least 1, got {expected}")
        if e.shape != expected:
            raise ValueError(f"entries shape {e.shape} != {expected}")
        if not np.isfinite(e).all():
            raise ValueError("curvature entries are non-finite")
        defect = float(np.max(np.abs(e - np.conj(np.transpose(e, (1, 0, 3, 2))))))
        if defect > CURVATURE_SYMMETRY_TOL * np.max(np.abs(e)):
            raise ValueError(f"curvature symmetry defect {defect:.3e} beyond "
                             f"{CURVATURE_SYMMETRY_TOL:.0e} x largest entry")
        self.entries = e


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
    n = tensor.dim
    keys = [((a,), (b,)) for a in range(n) for b in range(n)]
    return [[Form(n, {k: v for k, v in zip(keys, block.ravel().tolist()) if v})
             for block in row] for row in tensor.entries]


def det_forms(entries: list[list[Form]]) -> Form:
    """Determinant of a matrix of commuting (even) forms as the Leibniz sum
    sum_sigma sgn(sigma) entries[0][sigma(0)] ^ ... ^ entries[r-1][sigma(r-1)].
    """
    total = Form.zero(entries[0][0].n)
    for perm, sign in signed_permutations(len(entries)):
        factors = [row[j] for row, j in zip(entries, perm)]
        # an empty factor (a structural zero, as in Jacobi-Trudi) zeroes the term: skip its wedges
        if all(f.coeffs for f in factors):
            total = total + sign * reduce(wedge, factors)
    return total


def chern_forms(tensor: CurvatureTensor) -> list[Form]:
    """Chern forms c_0 .. c_r of det(Id + (i/2pi) Theta).

    c_k[I, J] = (i/2pi)^k (-1)^{k(k-1)/2} k! sum_{|S|=k} sum_sigma sgn(sigma)
    D((R[S_m, S_sigma(m)][I, J])_m): one ``mixed_discriminant`` call per k
    over the words of every fiber subset S, base pair (I, J) and sigma.  c_k
    holds every (k, k) key, zeros included; c_k = 0 for k > dim.
    """
    if tensor.rank > 5 or tensor.dim > 5:
        raise ValueError("chern_forms is desk-scale: rank <= 5 and dim <= 5")
    r, n = tensor.rank, tensor.dim
    cs = [Form.one(n)]
    for k in range(1, r + 1):
        if k > n:
            cs.append(Form.zero(n))
            continue
        perms, signs = permutation_table(k)
        fiber = np.array(list(combinations(range(r), k)))
        base = list(combinations(range(n), k))
        ij = np.array(base)
        # words[S, I, J, p, m] = R[S_m, S_perms[p, m]][I, J], a k x k matrix
        words = tensor.entries[fiber[:, None, None, None, :, None, None],
                               fiber[:, perms][:, None, None, :, :, None, None],
                               ij[None, :, None, None, None, :, None],
                               ij[None, None, :, None, None, None, :]]
        scale = (1j / TWO_PI) ** k * (-1) ** (k * (k - 1) // 2) * math.factorial(k)
        coeffs = (mixed_discriminant(words) @ signs).sum(0) * scale
        # tolist(): Python complex coefficients, so reports built on them stay JSON-ready
        cs.append(Form(n, dict(zip(product(base, base), coeffs.ravel().tolist()))))
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

    ``cs`` is the full list c_0 .. c_r; out-of-range Chern indices are zero.
    """
    rank = len(cs) - 1
    n = cs[0].n
    lam = validate_partition(parts, rank, n)
    zero = Form.zero(n)

    def entry(i: int, j: int) -> Form:
        k = lam[i] - i + j
        return cs[k] if 0 <= k <= rank else zero

    entries = [[entry(i, j) for j in range(rank)] for i in range(rank)]
    return det_forms(entries)


def c3_principal_minors(tensor: CurvatureTensor) -> Form:
    """c_3 as (i/2pi)^3 times the sum of 3x3 principal minors of the curvature matrix."""
    if tensor.rank < 3:
        raise ValueError("c3 needs rank >= 3")
    theta = curvature_form_matrix(tensor)
    total = sum((det_forms([[theta[i][j] for j in sub] for i in sub])
                 for sub in combinations(range(tensor.rank), 3)), Form.zero(tensor.dim))
    return ((1j / TWO_PI) ** 3) * total


def standard_omega(n: int) -> Form:
    """The strongly positive reference (1,1)-form (i/2pi) sum_a dz^a ^ dzbar^a."""
    fac = 1j / TWO_PI
    return Form(n, {((a,), (a,)): fac for a in range(n)})


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

def _homogeneous_pp(u: Form) -> int:
    degs = u.bidegrees() or {(0, 0)}
    if len(degs) != 1:
        raise ValueError(f"form is not homogeneous: bidegrees {sorted(degs)}")
    p, q = next(iter(degs))
    if p != q:
        raise ValueError(f"form has bidegree ({p},{q}), not (p,p)")
    return p


def _pairing_matrix(u: Form, q: int) -> tuple[list[tuple], np.ndarray]:
    """M[K, L] = tau(u ^ i^{q^2} dz^K ^ dzbar^L) over all q-multi-indices.

    For decomposable beta with Pluecker coordinates b, the tested volume
    coefficient is exactly  tau = sum_{K,L} b_K M[K,L] conj(b_L).
    """
    ks = list(combinations(range(u.n), q))
    phase = (1j) ** (q * q)
    m = np.array([[volume_coefficient(wedge(u, Form(u.n, {(k, l): phase}))) for l in ks]
                  for k in ks])
    return ks, m


def _batched_minors(g: np.ndarray, ks: list[tuple]) -> np.ndarray:
    """Pluecker coordinates det(g[:, :, K]) for each K; g has shape (m, q, n).

    One Leibniz gather: g[s, m, K[perms[p, m]]] multiplied over m and summed
    with the signs of the Heap-ordered ``permutation_table``.
    """
    q = g.shape[1]
    perms, signs = permutation_table(q)
    cols = np.array(ks)[:, perms]
    return g[:, np.arange(q), cols].prod(-1) @ signs


def weak_positivity_is_exact(u: Form) -> bool:
    """Whether every (q,0)-form is decomposable, q = n - p (q <= 1 or q >= n - 1),
    so that ``weak_positivity_min`` is exact rather than sampled."""
    q = u.n - _homogeneous_pp(u)
    return not 2 <= q <= u.n - 2


def _covectors(b: np.ndarray, ks: list[tuple], n: int) -> np.ndarray:
    """q orthonormal covectors (rows) whose Pluecker vector is the decomposable
    unit b up to a phase, which no volume coefficient sees.

    Contracting beta by dz^{K'}, K' a (q-1)-multi-index, leaves the vector
    sum_j sgn(K', j) b_{K' + j} e_j of its span; the top q right singular
    vectors of these rows are an orthonormal basis of that span.
    """
    q = len(ks[0])
    index = {k: a for a, k in enumerate(ks)}
    rows = np.zeros((math.comb(n, q - 1), n), dtype=complex)
    for a, kp in enumerate(combinations(range(n), q - 1)):
        for j in range(n):
            sign, key = merge_sign(kp, (j,))
            if sign is not None:
                rows[a, j] = sign * b[index[key]]
    return np.linalg.svd(rows)[2][:q]


def weak_positivity_min(u: Form, samples: int, seed: int) -> tuple[float, list[np.ndarray]]:
    """Minimum volume coefficient of u ^ i^{q^2} beta ^ betabar, q = n - p,
    over decomposable beta = beta_1 ^ ... ^ beta_q with unit Pluecker vector
    b, and the covectors beta_i of a minimizer as witness (none for q = 0).

    The coefficient is b^T M conj(b) for the pairing matrix M.  When every
    beta is decomposable (``weak_positivity_is_exact``) the minimum is the
    least eigenvalue of the Hermitian part of M, returned less the roundoff
    margin len(ks) 1e-14 max|lambda|, with b = conj(its eigenvector).  For
    2 <= q <= n - 2 it is the least Rayleigh quotient b^T M conj(b) / |b|^2
    over ``samples`` seeded Gaussian unit covectors, in blocks of
    WEAK_POSITIVITY_BLOCK seeded by seed + block index.  A negative minimum
    disproves weak positivity; a positive one proves it on the exact path.
    """
    p = _homogeneous_pp(u)
    n = u.n
    q = n - p
    if q < 0:
        raise ValueError(f"bidegree ({p},{p}) exceeds ambient dimension {n}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if q == 0:
        return float(volume_coefficient(u).real), []
    ks, m = _pairing_matrix(u, q)
    if weak_positivity_is_exact(u):
        lam, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        margin = len(ks) * 1e-14 * float(np.max(np.abs(lam)))
        return float(lam[0]) - margin, list(_covectors(vecs[:, 0].conj(), ks, n))
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
