"""Positive linear maps End(V) -> End(W) as block arrays, with scaling.

A map H is stored through its values on matrix units, blocks[i, j] =
H(E_ij), an (r, r, w, w) complex array.  Positivity means H sends every
nonzero positive semidefinite matrix to a positive definite one, which on
rank-one inputs reads

    sum_ij xi^i conj(xi^j) B_ij  >  0   for all unit xi in C^r,

and forces the block symmetry B_ij* = B_ji.

``sinkhorn_normalize`` alternately rescales output and input sides until
the doubly stochastic normalization  sum_i B_ii = r I,  tr B_ij = r d_ij
holds up to a residual.  Exact scaling matrices exist for positive maps;
we use the constructive alternation and certify the residual instead.

``positivity_certificate`` is sampling evidence, not proof: it reports the
smallest output eigenvalue found over seeded unit vectors plus a local
coordinate-descent refinement.  A clearly negative value (with its witness
vector) disproves positivity; a positive value is only evidence.  Maps on
the boundary of the positive cone (rank-deficient outputs somewhere, e.g.
the identity map or the Choi map) legitimately refine to zero up to
floating-point noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .discriminants import sample_unit_sphere
from .forms import CurvatureTensor
from .hermitian import as_matrix, inv_sqrt_hermitian

#: Block symmetry B_ij* = B_ji must hold within this entrywise defect.
BLOCK_SYMMETRY_TOL = 1e-10

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
        if defect > BLOCK_SYMMETRY_TOL:
            raise ValueError(f"block symmetry defect {defect:.3e} > {BLOCK_SYMMETRY_TOL:.0e}")
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
    for c in mats:
        if c.shape != (w, r):
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


def from_curvature(tensor: CurvatureTensor) -> BlockMap:
    """Block map B_ij[a, b] = R_{i jbar a bbar}.

    Griffiths positivity of the tensor is the same condition as strict
    positivity of this map on rank-one inputs (quantifying over conjugate
    base vectors swaps nothing).
    """
    return BlockMap(np.array(tensor.entries, dtype=complex))


def choi_fixture() -> BlockMap:
    """The rank-3 Choi-type positive, non-decomposable map.

    Diagonal blocks E_ii + E_{i-1,i-1} (indices mod 3), off-diagonal blocks
    -E_ij.  Validated once per process: exact structural identities, and a
    grid certificate that must come back strictly positive (the grid never
    hits the map's boundary zero locus, a measure-zero torus; refinement
    would, so the gate uses the raw grid minimum).  Each call returns a
    fresh copy that the caller may mutate.
    """
    return BlockMap(_validated_choi_blocks().copy())


@functools.cache
def _validated_choi_blocks() -> np.ndarray:
    blocks = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i == j:
                blocks[i, i, i, i] += 1.0
                k = (i - 1) % 3
                blocks[i, i, k, k] += 1.0
            else:
                blocks[i, j, i, j] = -1.0
    fixture = BlockMap(blocks)
    if fixture.symmetry_defect() != 0.0:
        raise NotStrictlyPositiveError("Choi fixture lost Hermitian block symmetry")
    diag_sum = sum(fixture.block(i, i) for i in range(3))
    if np.max(np.abs(diag_sum - 2.0 * np.eye(3))) != 0.0:
        raise NotStrictlyPositiveError("Choi fixture diagonal blocks do not sum to 2I")
    min_eig, _ = positivity_certificate(fixture, grid=2000, seed=_CERT_SEED,
                                        refine=False)
    if min_eig <= 0.0:
        raise NotStrictlyPositiveError(
            f"Choi fixture failed the positivity certificate: min_eig {min_eig:.3e}")
    return blocks


def _min_output_eigs(h: BlockMap, xis: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of H(xi xi*) for each row of xis."""
    outer = np.einsum("si,sj->sij", xis, xis.conj())
    mats = np.einsum("sij,ijab->sab", outer, h.blocks)
    mats = (mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2.0
    return np.linalg.eigvalsh(mats)[:, 0]


def positivity_certificate(h: BlockMap, grid: int, seed: int,
                           refine: bool = True) -> tuple[float, np.ndarray]:
    """Minimize the smallest eigenvalue of H(xi xi*) over sampled unit xi.

    Runs ``grid`` seeded samples, then (optionally) up to 50 rounds of
    coordinate descent on the sphere from the best one: each round
    perturbs every real/imaginary coordinate by +-step, renormalizes, keeps
    improvements, and halves the step after a round with no improvement.

    Returns (min_eig, witness xi).  min_eig > 0 is evidence of positivity;
    min_eig clearly below zero disproves it and the witness exhibits the
    failure.
    """
    if grid < 1:
        raise ValueError("grid must be at least 1")
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_xi = None
    remaining = grid
    while remaining > 0:
        count = min(remaining, 1 << 14)
        xis = sample_unit_sphere(rng, count, h.r)
        eigs = _min_output_eigs(h, xis)
        k = int(np.argmin(eigs))
        if eigs[k] < best_val:
            best_val = float(eigs[k])
            best_xi = xis[k].copy()
        remaining -= count
    if refine:
        step = 0.5
        for _ in range(50):
            improved = False
            for c in range(h.r):
                for delta in (step, -step, 1j * step, -1j * step):
                    cand = best_xi.copy()
                    cand[c] += delta
                    cand /= np.linalg.norm(cand)
                    val = float(_min_output_eigs(h, cand[None, :])[0])
                    if val < best_val:
                        best_val, best_xi = val, cand
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-12:
                    break
    return best_val, best_xi


def _congruence_output(blocks: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """B_ij -> C1 B_ij C1*."""
    return np.einsum("xa,klab,yb->klxy", c1, blocks, c1.conj())


def _congruence_input(blocks: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """B_ij -> sum_kl conj(C2_ik) C2_jl B_kl."""
    return np.einsum("ik,jl,klxy->ijxy", c2.conj(), c2, blocks)


def scale(h: BlockMap, c1, c2) -> BlockMap:
    """Operator scaling S_{C1,C2}(H)(X) = C1 H(C2* X C2) C1* on blocks.

    C1 and C2 must be invertible: the smallest singular value of each must
    exceed 1e-12 times its largest (a scale-invariant test).
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
    return BlockMap(_congruence_input(_congruence_output(h.blocks, m1), m2))


def trace_matrix(h: BlockMap) -> np.ndarray:
    """T with T_ij = tr(B_ij); Hermitian under block symmetry."""
    return np.einsum("ijaa->ij", h.blocks)


def normalization_residual(h: BlockMap) -> float:
    """||sum_i B_ii - rI||_F + ||T - rI||_F; zero iff doubly stochastic."""
    r = h.r
    if h.w != r:
        raise ValueError("normalization is defined for square maps (r = w)")
    eye = r * np.eye(r)
    left = np.einsum("iiab->ab", h.blocks) - eye
    right = trace_matrix(h) - eye
    return float(np.linalg.norm(left) + np.linalg.norm(right))


def sinkhorn_normalize(h: BlockMap, tol: float = 1e-10, max_iter: int = 500,
                       check_positive: bool = True) -> ScalingResult:
    """Alternately rescale H until doubly stochastic within ``tol``.

    Left step: with L = H(I)/r, congruence by L^{-1/2} makes H(I) = rI
    exactly.  Right step: the input-side update transforms the trace matrix
    as T -> conj(C2) T C2^T, so C2 = sqrt(r) conj(T^{-1/2}) makes T = rI
    exactly.  Singular L or T aborts: the map is not strictly positive.
    With ``check_positive`` a 256-sample positivity certificate runs first.

    Returns the scaled map with cumulative C1, C2; ``converged`` is False
    when max_iter is exhausted with residual still above ``tol``.
    """
    r = h.r
    if h.w != r:
        raise ValueError("sinkhorn_normalize needs a square map (r = w)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if check_positive:
        min_eig, _ = positivity_certificate(h, grid=256, seed=_CERT_SEED)
        if min_eig <= 1e-12:
            raise NotStrictlyPositiveError(
                f"certificate min_eig {min_eig:.3e}: map is not strictly positive")
    current = BlockMap(h.blocks.copy())
    c1_total = np.eye(r, dtype=complex)
    c2_total = np.eye(r, dtype=complex)
    sqrt_r = np.sqrt(float(r))
    residual = normalization_residual(current)
    iterations = 0
    while residual >= tol and iterations < max_iter:
        left = np.einsum("iiab->ab", current.blocks) / r
        try:
            c1_step = inv_sqrt_hermitian(left)
        except RuntimeError as exc:
            raise NotStrictlyPositiveError(f"left marginal is singular: {exc}") from exc
        # step matrices are invertible by construction (inv_sqrt_hermitian
        # refuses near-singular input), so scale's check is skipped
        current = BlockMap(_congruence_output(current.blocks, c1_step))
        c1_total = c1_step @ c1_total

        t = trace_matrix(current)
        try:
            c2_step = sqrt_r * np.conj(inv_sqrt_hermitian(t))
        except RuntimeError as exc:
            raise NotStrictlyPositiveError(f"trace matrix is singular: {exc}") from exc
        current = BlockMap(_congruence_input(current.blocks, c2_step))
        c2_total = c2_step @ c2_total

        iterations += 1
        residual = normalization_residual(current)
    return ScalingResult(scaled=current, c1=c1_total, c2=c2_total,
                         iterations=iterations, residual=residual,
                         converged=residual < tol)
