"""Positive linear maps End(V) -> End(W) as block arrays, with scaling.

A map H is stored through its values on matrix units, blocks[i, j] =
H(E_ij), an (r, r, w, w) complex array.  Positivity means H sends every
nonzero positive semidefinite matrix to a positive definite one, which on
rank-one inputs reads

    sum_ij xi^i conj(xi^j) B_ij  >  0   for all unit xi in C^r,

and forces the block symmetry B_ij* = B_ji.

``sinkhorn_normalize`` balances the output side, swaps the sides
(``SIDE_SWAP``) and repeats, until the doubly stochastic normalization
sum_i B_ii = r I,  tr B_ij = r d_ij  holds up to a residual.  Exact
scaling matrices exist for positive maps; we use the constructive
alternation and certify the residual instead.

``positivity_certificate`` is sampling evidence, not proof: it takes the
smallest output eigenvalue over seeded unit vectors and refines the best
one by a seesaw of exact minimizations of u* H(xi xi*) u: u = bottom
eigenvector of H(xi xi*), then xi = conj of the bottom eigenvector of
K_ij = u* B_ij u (Hermitian by block symmetry), until a round lowers the
value by at most 1e-15 x max|B|.  It reports whichever of the grid and
the seesaw value is lower.  A clearly negative value (with its witness
vector) disproves positivity; a positive value is only evidence of a
local minimum.  Maps on the boundary of the positive cone
(rank-deficient outputs somewhere, e.g. the identity map or the Choi map)
legitimately refine to zero up to floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discriminants import require_count, sample_unit_sphere
from .hermitian import as_matrix, inv_sqrt_hermitian

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

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i, j]

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
    return BlockMap(np.einsum("ij,ab->ijab", np.eye(r), np.eye(w)))


def identity_map(r: int) -> BlockMap:
    """H = id: blocks B_ij = E_ij (boundary of positivity, rank-one outputs)."""
    return BlockMap(np.einsum("ia,jb->ijab", np.eye(r), np.eye(r)))


def transpose_map(r: int) -> BlockMap:
    """H(X) = X^T: blocks B_ij = E_ji."""
    return BlockMap(np.einsum("ib,ja->ijab", np.eye(r), np.eye(r)))


def apply_map(h: BlockMap, x) -> np.ndarray:
    """H(x) = sum_ij x_ij B_ij."""
    m = as_matrix(x)
    if m.shape[0] != h.r:
        raise ValueError(f"argument dim {m.shape[0]} != map input dim {h.r}")
    return np.einsum("ij,ijab->ab", m, h.blocks)


def from_kraus(cs, eps: float = 0.0) -> BlockMap:
    """Completely positive map B_ij = sum_k C_k E_ij C_k*, plus eps * trace map.

    Each Kraus operator C_k must be w x r, and eps >= 0 (eps = 0 gives the
    completely positive map).  With eps > 0 the map is strictly positive:
    H(xi xi*) >= eps |xi|^2 I.
    """
    if not cs:
        raise ValueError("need at least one Kraus operator")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    mats = [np.array(c, dtype=complex) for c in cs]
    w, r = mats[0].shape
    if any(c.shape != (w, r) for c in mats):
        raise ValueError("all Kraus operators must share the same shape")
    # B_ij[a, b] = sum_k C_k[a, i] conj(C_k[b, j])
    stack = np.stack(mats)
    blocks = np.einsum("kai,kbj->ijab", stack, stack.conj())
    if eps:
        for i in range(r):
            blocks[i, i] += eps * np.eye(w)
    return BlockMap(blocks)


def random_kraus_map(r: int, terms: int, eps: float, seed: int) -> BlockMap:
    """Seeded random Kraus-plus-eps map with r = w (strictly positive for eps > 0)."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * r * max(terms, 1))
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


def _min_output_eigs(h: BlockMap, xis: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of H(xi xi*) for each row of xis."""
    outer = np.einsum("si,sj->sij", xis, xis.conj())
    mats = np.einsum("sij,ijab->sab", outer, h.blocks)
    mats = (mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2.0
    return np.linalg.eigvalsh(mats)[:, 0]


def _seesaw(blocks: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Seesaw from xi (see the module docstring): u* H(xi xi*) u =
    conj(xi)* K conj(xi), minimized over u, then over xi."""
    r, w = blocks.shape[0], blocks.shape[2]
    tol = 1e-15 * float(abs(blocks).max())
    best, val = xi, np.inf
    for _ in range(2000):
        out = xi.conj() @ (xi @ blocks.reshape(r, -1)).reshape(r, -1)
        vals, vecs = np.linalg.eigh(out.reshape(w, w))
        if vals[0] < val:
            best = xi
        if not vals[0] < val - tol:
            break
        val, u = vals[0], vecs[:, 0]
        k = blocks.reshape(r * r, w, w) @ u @ u.conj()
        xi = np.linalg.eigh(k.reshape(r, r))[1][:, 0].conj()
    return best


def _grid_minimum(h: BlockMap, grid: int, seed: int) -> tuple[float, np.ndarray]:
    """Smallest output eigenvalue over ``grid`` seeded unit samples, drawn in
    chunks of 2^14 from one generator, and the sample that attains it."""
    best_val, best_xi = np.inf, None
    rng = np.random.default_rng(seed)
    for done in range(0, grid, 1 << 14):
        xis = sample_unit_sphere(rng, min(grid - done, 1 << 14), h.r)
        eigs = _min_output_eigs(h, xis)
        k = int(np.argmin(eigs))
        if eigs[k] < best_val:
            # a copy, so that the best row does not keep its chunk alive
            best_val, best_xi = float(eigs[k]), xis[k].copy()
    return best_val, best_xi


def positivity_certificate(h: BlockMap, grid: int, seed: int) -> tuple[float, np.ndarray]:
    """Minimize the smallest eigenvalue of H(xi xi*) over sampled unit xi.

    Runs ``grid`` seeded samples in chunks of 2^14, keeping the best one,
    then refines it by the seesaw for at most 2000 rounds and keeps the
    refined vector when it reads strictly lower.  ``grid`` must be an
    integer >= 1.  A block-asymmetric map raises ValueError (K would not be
    Hermitian).

    Returns (min_eig, witness xi) with min_eig = lambda_min(H(xi xi*)).
    min_eig > 0 is evidence of positivity; min_eig clearly below zero
    disproves it and the witness exhibits the failure.
    """
    require_count(grid, "grid")
    h.require_symmetry()
    best_val, best_xi = _grid_minimum(h, grid, seed)
    refined = _seesaw(h.blocks, best_xi)
    val = float(_min_output_eigs(h, refined[None])[0])
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


def sinkhorn_normalize(h: BlockMap, tol: float = 1e-10, max_iter: int = 500,
                       check_positive: bool = True) -> ScalingResult:
    """Alternately rescale H until doubly stochastic within ``tol``.

    One half-step, applied to each side in turn: congruence by
    C = (sum_i B_ii / r)^{-1/2} makes sum_i B_ii = rI exactly, then the sides
    swap (SIDE_SWAP), so the next half-step makes T = rI.  C2 is the
    conjugate of the accumulated input-side steps, as ``scale`` expects.  A
    singular marginal aborts: the map is not strictly positive.  With
    ``check_positive`` a 256-sample positivity certificate must first exceed
    1e-12 lambda_max(H(I)) (scale-invariant: H(xi xi*) <= H(I)).  A
    block-asymmetric map raises ValueError.

    Returns the scaled map with cumulative C1, C2; ``converged`` is False
    when max_iter is exhausted with residual still above ``tol``.
    """
    r = h.r
    if h.w != r:
        raise ValueError("sinkhorn_normalize needs a square map (r = w)")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
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
        for side, name in enumerate(("output", "input")):
            try:
                step = inv_sqrt_hermitian(np.einsum("iiab->ab", blocks) / r)
            except RuntimeError as exc:
                raise NotStrictlyPositiveError(f"{name} marginal is singular: {exc}") from exc
            blocks = _congruence_swapped(blocks, step)
            # exact block symmetry: roundoff of ill-conditioned steps breaks it
            blocks = (blocks + blocks.transpose(1, 0, 3, 2).conj()) / 2
            totals[side] = step @ totals[side]
        iterations += 1
        residual = _residual(blocks)
    return ScalingResult(scaled=BlockMap(blocks), c1=totals[0], c2=totals[1].conj(),
                         iterations=iterations, residual=residual,
                         converged=residual < tol)
