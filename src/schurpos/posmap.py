"""Positive linear maps End(V) -> End(W) as block arrays, with scaling.

A map H is stored through its values on matrix units, blocks[i, j] =
H(E_ij), an (r, r, w, w) complex array.  Positivity means H sends every
nonzero positive semidefinite matrix to a positive definite one, which on
rank-one inputs reads

    sum_ij xi^i conj(xi^j) B_ij  >  0   for all unit xi in C^r,

and forces the block symmetry B_ij* = B_ji.

``sinkhorn_normalize`` scales H to the doubly stochastic normalization
sum_i B_ii = r I,  tr B_ij = r d_ij  up to a residual.  Its first
iteration is Gurvits's alternation: balance the output side exactly, swap
the sides (``SIDE_SWAP``), balance again.  Every later iteration is one
Newton step of the two marginal equations (second-order operator scaling,
Allen-Zhu, Garg, Li, Oliveira and Wigderson, STOC 2018), closed by the
exact input half-step, and falls back to the alternation when the step
fails or does not lower the residual.  As the closing half-step fixes the
input side, the step solves for the output side alone: one system of size
r^2 - 1, gathered through an anticommutator table cached per rank plus one
Gram matrix of the blocks.  Exact scaling matrices exist for positive
maps; we construct them iteratively and certify the residual.

``positivity_certificate`` is sampling evidence, not proof: it takes the
smallest output eigenvalue over seeded unit vectors and refines the best
one by a seesaw of exact minimizations of u* H(xi xi*) u: u = bottom
eigenvector of H(xi xi*), then xi = conj of the bottom eigenvector of
K_ij = u* B_ij u (Hermitian by block symmetry), until a round lowers the
value by at most 1e-15 x max|B|.  Each round first tries a Riemannian
Newton step of lambda_min H(xi xi*) on the unit sphere (Absil, Mahony and
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008), with the
Hessian made positive definite, and keeps it only when it lowers the value
by more than that tolerance; otherwise the plain round runs, and it runs
alone at r = 1, at w = 1 and where lambda_1 = lambda_0.  Newton converges
quadratically on the flat valleys where lambda_min sits at its floor along
a curve, on which the plain round halves the gradient per round.

At w = 2 and 3 a closed-form smallest eigenvalue screens the grid first,
and LAPACK evaluates only the rows within a safe margin of the screen's
minimum, so the grid value and its sample are those of LAPACK on every
row.  The certificate reports whichever of the grid and the seesaw value
is lower.  A clearly negative value (with its witness vector) disproves
positivity; a positive value is only evidence of a local minimum.  Maps on the boundary of the positive cone
(rank-deficient outputs somewhere, e.g. the identity map or the Choi map)
legitimately refine to zero up to floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discriminants import require_int, sample_unit_sphere
from .hermitian import as_matrix

#: Block symmetry B_ij* = B_ji must hold within this entrywise defect relative
#: to the largest entry.
BLOCK_SYMMETRY_TOL = 1e-12

#: Axis permutation exchanging the input pair (i, j) and the output pair (a, b).
SIDE_SWAP = (2, 3, 0, 1)

_CERT_SEED = 0x5EED


class NotStrictlyPositiveError(RuntimeError):
    """The map failed a strict-positivity check required by the operation."""


@dataclass
class BlockMap:
    """H: End(V) -> End(W) through blocks[i, j] = H(E_ij), shape (r, r, w, w)."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=complex)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3] or not b.size:
            raise ValueError(f"blocks must have shape (r, r, w, w), r, w >= 1, got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("blocks have non-finite entries")
        self.blocks = b

    @property
    def r(self) -> int:
        return self.blocks.shape[0]

    @property
    def w(self) -> int:
        return self.blocks.shape[2]

    def symmetry_defect(self) -> float:
        swapped = np.conj(np.transpose(self.blocks, (1, 0, 3, 2)))
        return float(np.max(np.abs(self.blocks - swapped)))

    def require_symmetry(self) -> "BlockMap":
        defect = self.symmetry_defect()
        if defect > BLOCK_SYMMETRY_TOL * np.max(np.abs(self.blocks)):
            raise ValueError(f"block symmetry defect {defect:.3e} beyond "
                             f"{BLOCK_SYMMETRY_TOL:.0e} x largest entry")
        return self


@dataclass
class ScalingResult:
    """Outcome of ``sinkhorn_normalize``.

    residual is ||H'(I) - rI||_F + ||T' - rI||_F with T'_ij = tr B'_ij.
    iterations counts both kinds: the plain pairs of half-steps and the
    Newton steps.
    """

    scaled: BlockMap
    c1: np.ndarray
    c2: np.ndarray
    iterations: int
    residual: float
    converged: bool


def trace_map(r: int, w: int | None = None) -> BlockMap:
    """H(X) = tr(X) I: blocks B_ij = delta_ij I."""
    w = r if w is None else w
    require_int(r, "r", 1)
    require_int(w, "w", 1)
    return BlockMap(np.einsum("ij,ab->ijab", np.eye(r), np.eye(w)))


def identity_map(r: int) -> BlockMap:
    """H = id: blocks B_ij = E_ij (boundary of positivity, rank-one outputs)."""
    require_int(r, "r", 1)
    return BlockMap(np.einsum("ia,jb->ijab", np.eye(r), np.eye(r)))


def from_kraus(cs, eps: float = 0.0) -> BlockMap:
    """Completely positive map B_ij = sum_k C_k E_ij C_k*, plus eps * trace map.

    Each Kraus operator C_k must be w x r, and eps finite and >= 0 (eps = 0
    gives the completely positive map).  With eps > 0 the map is strictly
    positive: H(xi xi*) >= eps |xi|^2 I.
    """
    mats = [np.array(c, dtype=complex) for c in cs]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    if not 0 <= eps < np.inf:
        raise ValueError("eps must be nonnegative and finite")
    shapes = [c.shape for c in mats]
    if len(shapes[0]) != 2 or len(set(shapes)) > 1:
        raise ValueError(f"Kraus operators must be w x r matrices of one shape, got {shapes}")
    w, r = shapes[0]
    # B_ij[a, b] = sum_k C_k[a, i] conj(C_k[b, j])
    stack = np.stack(mats)
    blocks = np.einsum("kai,kbj->ijab", stack, stack.conj())
    return BlockMap(blocks + eps * trace_map(r, w).blocks)


def random_kraus_map(r: int, terms: int, eps: float, seed: int) -> BlockMap:
    """Seeded random Kraus-plus-eps map with r = w (strictly positive for eps > 0)."""
    require_int(r, "r", 1)
    require_int(terms, "terms", 1)
    require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * r * terms)
    cs = [scale * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
          for _ in range(terms)]
    return from_kraus(cs, eps)


def choi_fixture() -> BlockMap:
    """The rank-3 Choi-type positive, non-decomposable map.

    Diagonal blocks E_ii + E_{i-1,i-1} (indices mod 3), off-diagonal blocks
    -E_ij: the Cho-Kye-Lee map Phi[2, 1, 0].  Each call builds a fresh array
    that the caller may mutate.
    """
    e = np.eye(3)
    # diag(2 e_i + e_{i-1}) on the diagonal blocks, minus E_ij in every block
    return BlockMap(np.einsum("ij,ia,ab->ijab", e, 2 * e + np.roll(e, -1, 1), e)
                    - np.einsum("ia,jb->ijab", e, e))


def _outputs(h: BlockMap, xis: np.ndarray) -> np.ndarray:
    """H(xi xi*) for each row of xis, symmetrized."""
    r, w = h.r, h.w
    outer = np.einsum("si,sj->sij", xis, xis.conj()).reshape(-1, r * r)
    # one matmul: the same contraction as an einsum costs ~20x more at 256 rows
    mats = (outer @ h.blocks.reshape(r * r, w * w)).reshape(-1, w, w)
    return (mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2.0


def _closed_form_min_eig(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2 x 2 or 3 x 3 matrix of a stack
    in closed form: the half-trace less a hypot at w = 2, the trigonometric
    form (O. K. Smith, Comm. ACM 4:168, 1961) at w = 3.

    A measured exception to calling LAPACK: ``eigvalsh`` costs ~1.3 us per
    3 x 3 matrix, this ~0.2 us.  At w = 3 it loses up to about
    sqrt(eps) max|entry| where the two smallest eigenvalues meet, so it only
    screens rows (``_grid_candidates``) and never reports a value.  Meant
    for max|entry| near 1: a spread p below 1e-100 counts as 0.
    """
    n, w = mats.shape[:2]
    # entry-major (w*w, n) rows, so that every operation below is on whole rows
    t = mats.reshape(n, w * w).T
    if w == 2:
        a, b = t[0].real, t[3].real
        return (a + b) / 2 - np.hypot((a - b) / 2, abs(t[1]))
    d, o = t[[0, 4, 8]].real, t[[1, 2, 5]]
    q = d.sum(0) / 3
    e = d - q
    oo = o.real ** 2 + o.imag ** 2
    p = np.sqrt(((e * e).sum(0) + 2 * oo.sum(0)) / 6)
    # det(A - qI); e_k pairs with the off-diagonal entry that avoids row and column k
    det = e[0] * e[1] * e[2] + 2 * (o[0] * o[2] * o[1].conj()).real - (e * oo[::-1]).sum(0)
    cos3 = np.minimum(np.maximum(det / (2 * np.maximum(p, 1e-100) ** 3), -1.0), 1.0)
    return q + 2 * p * np.cos(np.arccos(cos3) / 3 + 2 * np.pi / 3)


def _grid_candidates(mats: np.ndarray) -> np.ndarray:
    """Rows that may attain the smallest eigenvalue of a stack of Hermitian
    matrices, in order: at w = 2 and 3, those whose closed-form value is
    within 1e-6 x 2^k of the closed-form minimum, where max|entry| lies in
    [2^(k-1), 2^k); at any other w, or on a zero or overflowed stack, all.

    The margin is at least 30 times the closed form's worst error (about
    sqrt(eps) max|entry|), so every row left out reads strictly above the
    minimum in LAPACK too.  Scaling the stack by 2^-k is exact and keeps
    the closed form inside the float range.
    """
    top = float(abs(mats).max())
    if mats.shape[1] not in (2, 3) or not 0 < top < np.inf:
        return np.arange(len(mats))
    vals = _closed_form_min_eig(mats * math.ldexp(1.0, -math.frexp(top)[1]))
    return np.flatnonzero(vals <= vals.min() + 1e-6)


def _newton_point(bu: np.ndarray, xi: np.ndarray, vals: np.ndarray,
                  vecs: np.ndarray) -> np.ndarray | None:
    """xi after one Riemannian Newton step on the unit sphere for
    g(z) = lambda_min M(z), M(z) = sum_ij conj(z_i) z_j B_ij, z = conj(xi),
    given bu[ij] = B_ij u_0 and the eigenpairs (vals, vecs) of M(z), with
    vals[1] > vals[0].  None when the Hessian vanishes.

    On tangent directions d = E x (x real), E = [Q, iQ] for an orthonormal
    basis Q of {d : z* d = 0}, second-order perturbation of lambda_0 gives
        g((z + d) / |z + d|) = lambda_0 + g_0 . x + O(|x|^3)
            + x . (Re E* K E - lambda_0 - sum_k>=1 Re g_k g_k* / gap_k) x,
    where dM[d] = sum_ij (conj(d_i) z_j + conj(z_i) d_j) B_ij,
    u_k* dM[d] u_0 = g_k . x, gap_k = lambda_k - lambda_0, and
    L^k_ij = u_k* B_ij u_0 gives K = L^0.  The step solves with the
    absolute values of the eigenvalues of that form, clamped below at 1e-3
    of the largest, so it is a descent direction even off a local minimum.
    """
    r, w = len(xi), len(vals)
    z = xi.conj()
    lk = (vecs.conj().T @ bu.T).reshape(w, r, r)
    # Q: columns 1.. of the Householder reflector that sends z to a multiple of e_0
    s = 1.0 + abs(z[0])
    v = z.copy()
    v[0] = (z[0] / (s - 1.0) if s > 1.0 else 1.0) * s
    q = np.eye(r, r - 1, -1) - v[:, None] * (z[1:].conj() / s)
    e = np.concatenate([q, 1j * q], axis=1)
    # g_k = E* L^k z + E^T (L^k)^T conj(z); g_0 = 2 Re E* K z is the gradient
    g = (lk @ z) @ e.conj() + (z.conj() @ lk) @ e
    scaled = g[1:] / np.sqrt(vals[1:] - vals[0])[:, None]
    form = (e.conj().T @ lk[0] @ e - scaled.T @ scaled.conj()).real
    form.flat[::2 * r - 1] -= vals[0]  # Re E* E = I
    lam, basis = np.linalg.eigh(form)
    size = abs(lam)
    top = size.max()
    if not top > 0:
        return None
    x = basis @ ((basis.T @ g[0].real) / np.maximum(size, 1e-3 * top))
    z = z - e @ x / 2.0
    return z.conj() / np.vdot(z, z).real ** 0.5


def _seesaw(blocks: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Seesaw from xi (see the module docstring): u* H(xi xi*) u =
    conj(xi)* K conj(xi), minimized over u, then over xi, each round tried
    first as a ``_newton_point`` step.  At w = 1 the plain round is exact.

    The blocks are first scaled by the power of two that brings max|B|
    into [1/2, 1): exact, it moves no minimizer, and it keeps the squared
    gradients over eigenvalue gaps in the Hessian inside the float range.
    """
    r, w = blocks.shape[0], blocks.shape[2]
    top = float(abs(blocks).max())
    unit = math.ldexp(1.0, -math.frexp(top)[1])
    blocks, tol = blocks * unit, 1e-15 * top * unit
    rows, stack = blocks.reshape(r, -1), blocks.reshape(r * r, w, w)

    def output_eigh(v):
        return np.linalg.eigh((v.conj() @ (v @ rows).reshape(r, -1)).reshape(w, w))

    best, val = xi, np.inf
    vals, vecs = output_eigh(xi)
    for _ in range(2000):
        if vals[0] < val:
            best = xi
        if not vals[0] < val - tol:
            break
        val, u = vals[0], vecs[:, 0]
        bu = stack @ u
        if r > 1 and w > 1 and vals[1] > vals[0]:
            trial = _newton_point(bu, xi, vals, vecs)
            if trial is not None:
                trial_vals, trial_vecs = output_eigh(trial)
                if trial_vals[0] < val - tol:
                    xi, vals, vecs = trial, trial_vals, trial_vecs
                    continue
        xi = np.linalg.eigh((bu @ u.conj()).reshape(r, r))[1][:, 0].conj()
        vals, vecs = output_eigh(xi)
    return best


def _grid_minimum(h: BlockMap, grid: int, seed: int) -> tuple[float, np.ndarray]:
    """Smallest output eigenvalue over ``grid`` seeded unit samples, drawn in
    chunks of 2^14 from one generator, and the sample that attains it.
    LAPACK evaluates the rows that ``_grid_candidates`` keeps; the first of
    them that attains its minimum is the full stack's first argmin."""
    best_val, best_xi = np.inf, None
    rng = np.random.default_rng(seed)
    for done in range(0, grid, 1 << 14):
        xis = sample_unit_sphere(rng, min(grid - done, 1 << 14), h.r)
        mats = _outputs(h, xis)
        rows = _grid_candidates(mats)
        eigs = np.linalg.eigvalsh(mats[rows])[:, 0]
        k = int(np.argmin(eigs))
        if eigs[k] < best_val:
            # a copy, so that the best row does not keep its chunk alive
            best_val, best_xi = float(eigs[k]), xis[rows[k]].copy()
    return best_val, best_xi


def positivity_certificate(h: BlockMap, grid: int, seed: int) -> tuple[float, np.ndarray]:
    """Minimize the smallest eigenvalue of H(xi xi*) over sampled unit xi.

    Runs ``grid`` seeded samples in chunks of 2^14, keeping the best one,
    then refines it by the seesaw for at most 2000 rounds and keeps the
    refined vector when it reads strictly lower.  A round is a Newton step
    on the sphere when that lowers the value by more than the stop
    tolerance 1e-15 x max|B|, the plain seesaw round otherwise; as every
    kept round lowers the value, it never reads above the grid's.
    ``grid`` must be an integer >= 1 and ``seed`` an integer >= 0.  A
    block-asymmetric map raises ValueError (K would not be Hermitian).

    Returns (min_eig, witness xi) with min_eig = lambda_min(H(xi xi*)).
    min_eig > 0 is evidence of positivity; min_eig clearly below zero
    disproves it and the witness exhibits the failure.
    """
    require_int(grid, "grid", 1)
    require_int(seed, "seed", 0)
    h.require_symmetry()
    best_val, best_xi = _grid_minimum(h, grid, seed)
    refined = _seesaw(h.blocks, best_xi)
    val = float(np.linalg.eigvalsh(_outputs(h, refined[None]))[0, 0])
    return (val, refined) if val < best_val else (best_val, best_xi)


def _congruence_swapped(blocks: np.ndarray, c: np.ndarray) -> np.ndarray:
    """B_ij -> C B_ij C*, returned with the sides swapped by SIDE_SWAP."""
    return np.einsum("xa,klab,yb->xykl", c, blocks, c.conj())


def scale(h: BlockMap, c1, c2) -> BlockMap:
    """Operator scaling S_{C1,C2}(H)(X) = C1 H(C2* X C2) C1* on blocks.

    On the swapped blocks the input side is scaled like the output side, by
    conj(C2).  C1 and C2 must be invertible: the smallest singular value of
    each must exceed 1e-12 times its largest (a scale-invariant test).
    """
    m1, m2 = as_matrix(c1), as_matrix(c2)
    if m1.shape[0] != h.w:
        raise ValueError(f"c1 dim {m1.shape[0]} != output dim {h.w}")
    if m2.shape[0] != h.r:
        raise ValueError(f"c2 dim {m2.shape[0]} != input dim {h.r}")
    for m in (m1, m2):
        sv = np.linalg.svd(m, compute_uv=False)
        if not sv[-1] > 1e-12 * sv[0]:
            raise ValueError("scaling matrices must be invertible "
                             "(smallest singular value > 1e-12 x largest)")
    return BlockMap(_congruence_swapped(_congruence_swapped(h.blocks, m1), m2.conj()))


def _residual(blocks: np.ndarray) -> float:
    """``normalization_residual`` of square blocks, T_ij = tr B_ij."""
    eye = blocks.shape[0] * np.eye(blocks.shape[0])
    return float(np.linalg.norm(np.einsum("iiab->ab", blocks) - eye)
                 + np.linalg.norm(np.einsum("ijaa->ij", blocks) - eye))


def normalization_residual(h: BlockMap) -> float:
    """||sum_i B_ii - rI||_F + ||T - rI||_F; zero iff doubly stochastic."""
    if h.w != h.r:
        raise ValueError("normalization is defined for square maps (r = w)")
    return _residual(h.blocks)


def _half_step(blocks: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact half-step: congruence by C = (M / r)^{-1/2}, with
    M = sum_i B_ii, makes sum_i B_ii = rI.  Returns the blocks with the sides
    swapped (SIDE_SWAP), so that the next half-step balances the other side,
    and C.  M is Hermitian by construction (eigh reads its lower triangle).
    Where its smallest eigenvalue is below the floor 1e-14 x the largest, or
    the largest is not positive, the marginal is singular and
    NotStrictlyPositiveError names ``side``, the side being balanced."""
    vals, vecs = np.linalg.eigh(np.einsum("iiab->ab", blocks) / blocks.shape[0])
    if not vals[0] >= 1e-14 * vals[-1] > 0:
        raise NotStrictlyPositiveError(
            f"{side} marginal is singular: matrix is numerically singular "
            f"(min eigenvalue {vals[0]:.3e})")
    step = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    blocks = _congruence_swapped(blocks, step)
    # exact block symmetry: roundoff of ill-conditioned steps breaks it
    return (blocks + blocks.transpose(1, 0, 3, 2).conj()) / 2, step


@lru_cache(maxsize=None)
def _anticommutator_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (i1, i2) into src = [0, vec M] (row-major vec) such
    that (src[i1] + src[i2]) / 2 is the matrix of X -> (XM + MX)/2 on
    row-major vec(X), gauge row and column 0 dropped.  Read-only, as the
    cache shares them.
    """
    a, b, c, d = np.indices((r,) * 4).reshape(4, r * r, r * r)[:, 1:, 1:]
    # entry ((a, b), (c, d)) is (d_ac M_db + M_ac d_bd)/2, a missing term
    # reading src[0] = 0
    tables = (a == c) * (1 + d * r + b), (b == d) * (1 + a * r + c)
    for t in tables:
        t.flags.writeable = False
    return tables


def _newton_system(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian and right-hand side of the gauged Newton system of
    ``_newton_iteration`` in x_ab, (a, b) != (0, 0), row-major."""
    r = blocks.shape[0]
    i1, i2 = _anticommutator_table(r)
    marginal = np.einsum("iiab->ab", blocks)
    src = np.concatenate([[0], marginal.ravel()])
    # column (b, a) of row (i, j) holds B_ij[a, b], so Q vec(x) = vec tr(x B_ij)
    q = blocks.swapaxes(2, 3).reshape(r * r, r * r)[:, 1:]
    jac = (src[i1] + src[i2]) / 2 - q.conj().T @ q / r
    return jac, (marginal - r * np.eye(r)).ravel()[1:]


def _newton_iteration(blocks: np.ndarray):
    """One Newton step of the output balance, then the exact input
    half-step; (blocks, [C1 step, C2 step], residual), or None when the
    solve or the half-step meets a singular matrix or the result is not
    finite.

    The joint linearization in Hermitian x (output side) and y (input side),
        (xM + Mx)/2 + sum_ik y_ik B_ki = M - rI,   M = sum_i B_ii,
        tr(x B_ij) + (yN + Ny)/2       = N - rI,   N_ij = tr B_ij,
    starts at N = rI (every iteration ends with the input half-step), so
    y = -Qx/r with Q vec(x) = vec tr(x B_ij), block symmetry makes the
    coupling Q^H, and x solves
        (xM + Mx)/2 - Q^H Q x / r = M - rI.
    Its kernel is span(I) and its trace equation is redundant: gauged by
    x_00 = 0 with the (0, 0) row dropped, it has size r^2 - 1.  y is never
    formed, as the residual after the closing half-step is the same for
    any input-side congruence before it.  Numpy's float errors are ignored
    here: a trial that leaves the float range comes back non-finite and is
    rejected.
    """
    r = blocks.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = np.concatenate([[0], np.linalg.solve(*_newton_system(blocks))]).reshape(r, r)
            # exp(-x/2), positive definite (eigh reads the lower triangle)
            vals, vecs = np.linalg.eigh(x)
            out = (vecs * np.exp(-vals / 2)) @ vecs.conj().T
            blocks, step = _half_step(_congruence_swapped(blocks, out), "input")
        except (np.linalg.LinAlgError, NotStrictlyPositiveError):
            return None
        residual = _residual(blocks)
    return (blocks, [out, step], residual) if np.isfinite(residual) else None


def sinkhorn_normalize(h: BlockMap, tol: float = 1e-10, max_iter: int = 500,
                       check_positive: bool = True) -> ScalingResult:
    """Rescale H until doubly stochastic within ``tol``.

    Iteration 1 is the plain pair of exact half-steps: congruence by
    C = (sum_i B_ii / r)^{-1/2} makes sum_i B_ii = rI exactly, then the sides
    swap (SIDE_SWAP) and the same step makes T = rI.  It absorbs a positive
    factor and any output-side congruence, so neither changes the count.
    Every later iteration is one Newton step on the output side, a solve of
    size r^2 - 1, followed by the exact input half-step (see
    ``_newton_iteration``), kept only when it is finite and lowers the
    residual; otherwise the plain pair runs in its place.  Either way an
    iteration ends with T = rI to roundoff.  C1 and C2 accumulate every
    applied step, C2 as the conjugate of the input-side steps, as ``scale``
    expects.  A singular marginal in a plain half-step, one whose smallest
    eigenvalue is below 1e-14 x its largest, aborts: the map is not strictly
    positive.  With ``check_positive`` a 256-sample positivity certificate
    must first exceed 1e-12 lambda_max(H(I)) (scale-invariant:
    H(xi xi*) <= H(I)).  A block-asymmetric map raises ValueError.

    ``max_iter`` must be an integer >= 0 (0 returns the input unscaled).

    Returns the scaled map with cumulative C1, C2; ``converged`` is False
    when max_iter is exhausted with residual still above ``tol``.  With
    ``check_positive=False`` a map that is not positive to working precision
    may run all of ``max_iter`` and return ``converged=False``, where the
    alternation alone would have met a singular marginal: nothing else in
    the result says so (seeds 40, 142 and 195 of
    ``test_badly_conditioned_trial_steps_never_raise``).
    """
    r = h.r
    if h.w != r:
        raise ValueError("sinkhorn_normalize needs a square map (r = w)")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    require_int(max_iter, "max_iter", 0)
    h.require_symmetry()
    if check_positive:
        min_eig, _ = positivity_certificate(h, grid=256, seed=_CERT_SEED)
        if min_eig <= 1e-12 * np.linalg.eigvalsh(np.einsum("iiab->ab", h.blocks))[-1]:
            raise NotStrictlyPositiveError(
                f"certificate min_eig {min_eig:.3e}: map is not strictly positive")
    blocks = h.blocks.copy()
    totals = [np.eye(r, dtype=complex), np.eye(r, dtype=complex)]
    residual = _residual(blocks)
    iterations = 0
    while residual >= tol and iterations < max_iter:
        trial = _newton_iteration(blocks) if iterations else None
        if trial is not None and trial[2] < residual:
            blocks, steps, residual = trial
        else:
            blocks, out = _half_step(blocks, "output")
            blocks, inp = _half_step(blocks, "input")
            steps, residual = [out, inp], _residual(blocks)
        totals = [step @ total for step, total in zip(steps, totals)]
        iterations += 1
    return ScalingResult(scaled=BlockMap(blocks), c1=totals[0], c2=totals[1].conj(),
                         iterations=iterations, residual=residual,
                         converged=residual < tol)
