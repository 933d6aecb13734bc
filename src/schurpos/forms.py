"""Pointwise exterior algebra of forms on C^n: Chern and Schur forms,
line-bundle twisting, and weak-positivity sampling.

A form has one bidegree (p, q) and a dense complex coefficient array of
shape (C(n, p), C(n, q)), representing

    u = sum_{I,J} u[I, J] dz^I wedge dzbar^J ,

where rows I and columns J run over the strictly increasing multi-indices
(0-based) in ``itertools.combinations(range(n), .)`` order, and
dz^I = dz^{i_1} ^ ... ^ dz^{i_p}; axes before these two make a stack of
forms.  Koszul signs come from the memoized ``merge_tensor(n, a, b)``, so
``wedge``, the one exterior product of forms and of stacks, is two matmuls.
The algebra is total: C(n, p) = 0 for p > n, so a product beyond top degree
is a form with an empty coefficient array, never an error.

Finiteness is checked once per result that the module returns: by the
``Form`` constructor, by ``wedge``, ``+`` and ``*``, and by ``chern_forms``,
``schur_form``, ``c3_principal_minors`` and ``twist_chern`` on what they
return.  A product of finite forms can overflow, so no result goes unchecked;
the intermediates of their folds are built by ``Form._trusted``, with no copy
and no scan.

Conventions fixed here and relied on everywhere:

* the canonical positive volume is i^n dz^1 ^ dzbar^1 ^ ... ^ dz^n ^ dzbar^n,
  so a top form c dz^{1..n} ^ dzbar^{1..n} has volume coefficient
  tau = c (-i)^n (-1)^{n(n-1)/2};
* a real (p, p)-form satisfies u_{J,I} = (-1)^p conj(u_{I,J});
* the frame is orthonormal at the point, so curvature indices need no
  raising or lowering and (R)^i_j is read off as R[j, i, :, :] up to the
  transpose-invariance of determinants.

Chern forms go through the kernel of Phi.  (1,1)-forms commute, so
c_k = (i/2pi)^k sum_{|S|=k} det(Theta[S, S]), and expanding a wedge of k
(1,1)-forms with coefficient matrices A^1 .. A^k gives the coefficient of
dz^I ^ dzbar^J as (-1)^{k(k-1)/2} k! D(A^1[I,J], .., A^k[I,J]).  Hence,
over k-subsets S of the fiber and I, J of the base,

    c_k[I, J] = (i/2pi)^k (-1)^{k(k-1)/2} k!
                sum_S sum_{sigma in S_k} sgn(sigma) D((R[S_m, S_sigma(m)][I, J])_m),

the ``principal_sum`` that defines Phi: each coefficient is a sum of Phi
over the k x k sub-block maps R[S, S][:, :, I, J].  The principal-minor route
``c3_principal_minors`` and ``twist_chern`` run on the form algebra
(``wedge``) instead, so they check ``chern_forms`` without sharing its
arithmetic; the principal minors share only its index table
``leibniz_table`` and fold its terms with one stacked wedge per factor.  A
Schur form is an integer polynomial in the Chern forms: the Jacobi-Trudi
determinant is expanded into Chern monomials with integer coefficients,
cancelled monomials are dropped before any wedge, and each remaining one is
one wedge chain.

Weak positivity of a (p,p)-form u tests u ^ i^{q^2} beta ^ betabar, q = n - p,
against decomposable (q,0)-forms beta: a Hermitian form in the Pluecker
vector of beta.  For q <= 1 and q >= n - 1 every (q,0)-form is decomposable,
so the minimum is an eigenvalue; only 2 <= q <= n - 2 is sampled, with
Pluecker vectors from a stacked ``wedge`` of the sampled covectors.

Everything is pointwise linear algebra: no d, no global structure.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, combinations

import numpy as np

from .discriminants import (leibniz_table, permutation_table, principal_sum, require_int,
                            sample_unit_sphere, stack_det)
from .posmap import BlockMap, from_kraus

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
    """Complex (p, q)-form on C^n, or a stack of them along leading axes:
    coeffs[..., I, J] multiplies dz^I ^ dzbar^J in ``combinations`` order."""

    __slots__ = ("n", "p", "q", "coeffs")

    def __init__(self, n: int, p: int, q: int, coeffs):
        self.n, self.p, self.q = n, p, q
        self.coeffs = np.array(coeffs, dtype=complex)
        shape = (math.comb(n, p), math.comb(n, q))
        if self.coeffs.shape[-2:] != shape:
            raise ValueError(f"({p},{q})-form on C^{n} needs coefficients of shape "
                             f"{shape}, got {self.coeffs.shape}")
        self.require_finite()

    @classmethod
    def _trusted(cls, n: int, p: int, q: int, coeffs: np.ndarray) -> "Form":
        """A form on a complex array of the right shape that nothing modifies
        later: no copy and no check, for the intermediates of a fold and for
        results that the caller checks with ``require_finite``."""
        u = object.__new__(cls)
        u.n, u.p, u.q, u.coeffs = n, p, q, coeffs
        return u

    @classmethod
    def one(cls, n: int) -> "Form":
        return cls._trusted(n, 0, 0, np.ones((1, 1), dtype=complex))

    @classmethod
    def zero(cls, n: int, p: int, q: int) -> "Form":
        return cls._trusted(n, p, q, np.zeros((math.comb(n, p), math.comb(n, q)), dtype=complex))

    def require_finite(self) -> "Form":
        """This form, unless a coefficient is NaN or infinite."""
        if not np.isfinite(self.coeffs).all():
            raise ValueError("form has non-finite coefficients")
        return self

    def require_single(self) -> "Form":
        """This form, unless its coefficients carry stack axes."""
        if self.coeffs.ndim != 2:
            raise ValueError(f"expected one form, got a stack: coefficients of shape "
                             f"{self.coeffs.shape}")
        return self

    def __add__(self, other: "Form") -> "Form":
        return _plus(self, other).require_finite()

    def __sub__(self, other: "Form") -> "Form":
        return _plus(self, _times(other, -1.0)).require_finite()

    def __mul__(self, scalar) -> "Form":
        return _times(self, scalar).require_finite()

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))


def _require_same_space(u: Form, v: Form) -> None:
    if (u.n, u.p, u.q) != (v.n, v.p, v.q):
        raise ValueError(f"forms differ in (n, p, q): {(u.n, u.p, u.q)} != {(v.n, v.p, v.q)}")


def _plus(u: Form, v: Form) -> Form:
    """u + v for one bidegree, unchecked for finiteness."""
    _require_same_space(u, v)
    return Form._trusted(u.n, u.p, u.q, u.coeffs + v.coeffs)


def _times(u: Form, scalar) -> Form:
    """scalar * u, unchecked for finiteness."""
    return Form._trusted(u.n, u.p, u.q, complex(scalar) * u.coeffs)


def max_coeff_diff(u: Form, v: Form) -> float:
    """Largest coefficient discrepancy between two forms of one bidegree."""
    _require_same_space(u, v)
    return float(np.abs(u.coeffs - v.coeffs).max(initial=0.0))


def _wedge(u: Form, v: Form) -> Form:
    """``wedge`` unchecked for finiteness, for the intermediates of a fold."""
    if u.n != v.n:
        raise ValueError("ambient dimensions differ")
    ei, ej = (e.reshape(e.shape[0] * e.shape[1], e.shape[2])
              for e in (merge_tensor(u.n, u.p, v.p), merge_tensor(u.n, u.q, v.q)))
    kron = u.coeffs[..., :, None, :, None] * v.coeffs[..., None, :, None, :]
    kron = kron.reshape(kron.shape[:-4] + (len(ei), len(ej)))
    return Form._trusted(u.n, u.p + v.p, u.q + v.q,
                         (-1) ** (u.q * v.p) * (ei.T @ kron @ ej))


def wedge(u: Form, v: Form) -> Form:
    """Exterior product of forms or of stacks, whose leading axes broadcast.
    Koszul sign: moving dzbar^{J1} past dz^{I2} gives (-1)^{q_u p_v}; the
    merges I1 + I2 and J1 + J2 give the signs of ``merge_tensor``, contracted
    against kron(u.coeffs, v.coeffs): rows (I1, I2), columns (J1, J2).

    A product beyond top degree is a form with an empty coefficient array.
    """
    return _wedge(u, v).require_finite()


def _volume_phase(n: int) -> complex:
    """tau / c for the top form c dz^{1..n} ^ dzbar^{1..n}."""
    return (-1.0j) ** n * (-1.0) ** (n * (n - 1) // 2)


def volume_coefficient(u: Form) -> complex:
    """tau with (top part of u) = tau * i^n dz^1 ^ dzbar^1 ^ ... ^ dz^n ^ dzbar^n;
    0 unless u has bidegree (n, n)."""
    u.require_single()
    if (u.p, u.q) != (u.n, u.n):
        return 0j
    return complex(u.coeffs[0, 0]) * _volume_phase(u.n)


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
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    require_int(rank, "rank", 1)
    require_int(dim, "dim", 1)
    require_int(terms, "terms", 0)
    require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    # the Kraus sum of C_s = (T^s)^T, with a zero operator when terms = 0
    cs = [(rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))).T
          for _ in range(terms)] or [np.zeros((dim, rank))]
    return CurvatureTensor(rank=rank, dim=dim, entries=from_kraus(cs, eps).blocks)


@cache
def _minor_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column index arrays that gather, from a (..., n, n)
    array, its k x k minors [I, J] over k-subsets in ``combinations`` order."""
    ij = np.array(list(combinations(range(n), k)), dtype=np.intp)
    rows, cols = ij[:, None, :, None], ij[None, :, None, :]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def chern_forms(tensor: CurvatureTensor) -> list[Form]:
    """Chern forms c_0 .. c_r of det(Id + (i/2pi) Theta).

    c_k[I, J] = (i/2pi)^k (-1)^{k(k-1)/2} k! sum_{|S|=k} sum_sigma sgn(sigma)
    D((R[S_m, S_sigma(m)][I, J])_m): ``principal_sum`` of ``stack_det``, the
    diagonal of the mixed discriminant D, with the base pairs (I, J) leading.
    c_k is the (k, k) zero form for k > dim.
    """
    if tensor.rank > 5 or tensor.dim > 5:
        raise ValueError("chern_forms is desk-scale: rank <= 5 and dim <= 5")
    r, n = tensor.rank, tensor.dim
    cs = [Form.one(n)]
    for k in range(1, r + 1):
        if k > n:
            cs.append(Form.zero(n, k, k))
            continue
        # blocks[I, J, i, j] = R[i, j][I, J], the k x k minor of block (i, j)
        blocks = tensor.entries[(..., *_minor_index(n, k))].transpose(2, 3, 0, 1, 4, 5)
        scale = (1j / TWO_PI) ** k * (-1) ** (k * (k - 1) // 2) * math.factorial(k)
        c = Form._trusted(n, k, k, scale * principal_sum(blocks, k, stack_det))
        cs.append(c.require_finite())
    return cs


def validate_partition(parts, rank: int, dim: int) -> tuple[int, ...]:
    """Pad/validate a partition for Schur forms of a rank-``rank`` input.
    Each part must pass ``require_int`` at minimum 0, so a part that is not an
    integer (or is a bool) is rejected, never truncated."""
    lam = list(parts)
    for x in lam:
        require_int(x, "partition part", 0)
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


@cache
def _schur_monomials(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The Chern monomials (sorted nonzero indices) of det(c_{lambda_i - i + j})
    at rank len(lam), with their nonzero integer coefficients."""
    rank = len(lam)
    perms, signs = permutation_table(rank)
    monomials: dict[tuple, int] = {}
    for perm, sign in zip(perms.tolist(), signs.tolist()):
        ks = [lam[i] - i + j for i, j in enumerate(perm)]
        if all(0 <= k <= rank for k in ks):
            key = tuple(sorted(k for k in ks if k))
            monomials[key] = monomials.get(key, 0) + sign
    return tuple((key, coeff) for key, coeff in monomials.items() if coeff)


def schur_form(cs: list[Form], parts) -> Form:
    """P_lambda = det(c_{lambda_i - i + j}) as an integer Chern polynomial.

    ``cs`` is the full list c_0 .. c_r.  The Leibniz term of sigma is
    sgn(sigma) c_{k_1} ^ ... ^ c_{k_r} with k_i = lambda_i - i + sigma(i): zero
    when some k_i lies outside 0..r, and otherwise, since even forms commute,
    the monomial named by its sorted nonzero indices.  Signs are summed per
    monomial as integers, once per partition, so cancelled monomials never
    reach ``wedge``.
    """
    lam = validate_partition(parts, len(cs) - 1, cs[0].n)
    terms = (_times(reduce(_wedge, [cs[k] for k in key] or [cs[0]]), coeff)
             for key, coeff in _schur_monomials(lam))
    return reduce(_plus, terms).require_finite()


def c3_principal_minors(tensor: CurvatureTensor) -> Form:
    """c_3 as (i/2pi)^3 times the sum of 3x3 principal minors of the curvature
    matrix: the Leibniz terms of every fiber 3-subset from ``leibniz_table``,
    the index table of ``principal_sum``, folded by one stacked ``wedge`` per
    factor after the first."""
    if tensor.rank < 3:
        raise ValueError("c3 needs rank >= 3")
    n = tensor.dim
    rows, cols, signs = leibniz_table(tensor.rank, 3)
    blocks = tensor.entries[rows, cols]
    terms = reduce(_wedge, [Form._trusted(n, 1, 1, blocks[:, m]) for m in range(3)])
    weights = (1j / TWO_PI) ** 3 * signs
    c3 = Form._trusted(n, 3, 3, np.einsum("t,t...->...", weights, terms.coeffs))
    return c3.require_finite()


def standard_omega(n: int) -> Form:
    """The strongly positive reference (1,1)-form (i/2pi) sum_a dz^a ^ dzbar^a."""
    return Form(n, 1, 1, (1j / TWO_PI) * np.eye(n))


def twist_chern(cs: list[Form], eps: float, omega: Form) -> list[Form]:
    """Chern forms c_0 .. c_r of E (x) L, L a line bundle of curvature
    t = -eps * omega on the forms' C^n: c_k' = sum_j C(r - j, k - j) t^(k - j) ^ c_j
    (Fulton, Intersection Theory, 3.2), on the powers t^0 .. t^r of one form
    with integer weights.  A twist beyond the float range raises ValueError."""
    r = len(cs) - 1
    powers = list(accumulate([_times(omega, -eps)] * r, _wedge, initial=Form.one(omega.n)))
    return [reduce(_plus, (_times(_wedge(powers[k - j], cs[j]), math.comb(r - j, k - j))
                           for j in range(k, -1, -1))).require_finite() for k in range(r + 1)]


# ---------------------------------------------------------------------------
# Weak positivity
# ---------------------------------------------------------------------------

def _pairing_matrix(u: Form, q: int) -> np.ndarray:
    """M[K, L] = tau(u ^ i^{q^2} dz^K ^ dzbar^L) over all q-multi-indices.

    For decomposable beta with Pluecker coordinates b, the tested volume
    coefficient is exactly  tau = sum_{K,L} b_K M[K,L] conj(b_L).  Each
    p-subset I meets one q-subset, its complement, with the sign
    e[I, K] = merge_tensor(n, p, q)[I, K, 0], so M = phase e^T u e.
    """
    e = merge_tensor(u.n, u.p, q)[:, :, 0]
    phase = (1j) ** (q * q) * (-1) ** (u.q * q) * _volume_phase(u.n)
    return phase * (e.T @ u.coeffs @ e)


def _plucker(g: np.ndarray) -> np.ndarray:
    """Pluecker coordinates det(g[..., :, K]) (..., C(n, q)) of covector stacks
    g (..., q, n): one stacked ``wedge`` fold of the rows as (1,0)-forms."""
    factors = [Form._trusted(g.shape[-1], 1, 0, g[..., m, :, None])
               for m in range(g.shape[-2])]
    return reduce(_wedge, factors).coeffs[..., 0]


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
    margin C(n, q) 1e-14 max|lambda|, with b = conj(its eigenvector).  For
    2 <= q <= n - 2 it is the least Rayleigh quotient b^T M conj(b) / |b|^2
    over ``samples`` seeded Gaussian unit covectors, in blocks of
    WEAK_POSITIVITY_BLOCK seeded by seed + block index.  ``samples`` is
    checked on that path only, since the exact path draws none; ``seed`` is
    checked on both.

    On the exact path the value is lambda_min - margin: a positive value
    proves weak positivity, a value below -2 x margin disproves it (then
    lambda_min < -margin, beyond roundoff), and a value in between is
    inconclusive.  A sampled value is evidence only; a clearly negative one
    disproves weak positivity through its witness.
    """
    u.require_single()
    n, q = u.n, u.n - u.p
    exact = weak_positivity_is_exact(u)
    if q < 0:
        raise ValueError(f"bidegree ({u.p},{u.p}) exceeds ambient dimension {n}")
    require_int(seed, "seed", 0)
    if q == 0:
        return float(volume_coefficient(u).real), []
    m = _pairing_matrix(u, q)
    if exact:
        lam, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        margin = len(m) * 1e-14 * float(np.max(np.abs(lam)))
        return float(lam[0]) - margin, list(_covectors(vecs[:, 0].conj(), n, q))
    require_int(samples, "samples", 1)
    best, witness = np.inf, None
    for block, start in enumerate(range(0, samples, WEAK_POSITIVITY_BLOCK)):
        count = min(WEAK_POSITIVITY_BLOCK, samples - start)
        g = sample_unit_sphere(np.random.default_rng(seed + block), (count, q), n)
        b = _plucker(g)
        # Rayleigh quotients: the unit covectors of g give |b| <= 1, not |b| = 1
        taus = (np.einsum("sk,kl,sl->s", b, m, b.conj()).real
                / np.einsum("sk,sk->s", b, b.conj()).real)
        k = int(np.argmin(taus))
        if taus[k] < best:
            best, witness = float(taus[k]), g[k].copy()
    return best, list(witness)
