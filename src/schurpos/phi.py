"""The double mixed discriminant of a square block map, every route.

For a block map with r = w, the quantity of interest is the signed sum

    Phi = sum_{sigma in S_r} sgn(sigma) D(B_{1 sigma(1)}, ..., B_{r sigma(r)}),

real for Hermitian-symmetric blocks.  Besides this direct sum, it equals

* the same sum over the transposed block family A_pq with
  (A_pq)_ij = (B_ij)_pq: expanding D writes Phi as Cayley's
  hyperdeterminant of the order-4 block tensor,

      Phi = (1/r!) sum_{pi, sigma, tau} sgn(pi sigma tau)
            prod_m B[m, pi(m), sigma(m), tau(m)],

  which is symmetric under swapping the axis pairs (0, 1) and (2, 3), so
  the dual route is the direct sum on the axis-swapped tensor;
* for r = 2 under the doubly stochastic normalization, the exact spherical
  integral of 4 - 3 det C(xi);
* for r = 3, the integral of 10 det C(xi) + 27 - 12 sigma_2(C(xi)), whose
  det-part is also a strictly positive lower bound for positive maps;
* for r = 4, an integral part 35 sigma_4 + 128 - (80/3) sigma_2 plus a
  residual signed sum of 4-cycle trace words that admits no such integral
  form.

Here C(xi) is the r x r matrix of quadratic forms (xi* B_ij xi).  All the
integrals are evaluated exactly: each monomial in the entries of C(xi) is a
product of quadratic forms and goes through ``moment_exact``; no quadrature
is involved.

The Leibniz terms (B_{1 sigma(1)}, ..., B_{r sigma(r)}) are enumerated once,
as the (r!, r, w, w) array ``leibniz_stack``; each route dots their signs
with one stacked kernel: ``mixed_discriminant``, ``moment_exact`` (int det C)
or ``four_cycle_trace_sum`` (the rank-4 residue).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .discriminants import mixed_discriminant, moment_exact, permutation_table
from .posmap import BlockMap, normalization_residual

#: Integral routes demand this much normalization before they make sense.
NORMALIZATION_RESIDUAL_TOL = 1e-8


@dataclass
class PhiReport:
    value: float
    imaginary_residue: float
    method: str
    lower_bound: float | None = None


def _report(z: complex, method: str, **extra) -> PhiReport:
    return PhiReport(value=float(z.real), imaginary_residue=float(abs(z.imag)),
                     method=method, **extra)


def _require_rank(h: BlockMap, ranks: range, what: str) -> None:
    if h.r != h.w:
        raise ValueError(f"{what} needs a square map (r = w), got r={h.r}, w={h.w}")
    if h.r not in ranks:
        raise ValueError(f"{what} needs rank {ranks[0]}, got {h.r}" if len(ranks) == 1
                         else f"{what} supports rank <= {ranks[-1]}, got {h.r}")


def _require_normalized(h: BlockMap, what: str) -> None:
    res = normalization_residual(h)
    if res >= NORMALIZATION_RESIDUAL_TOL:
        raise ValueError(
            f"{what} needs a doubly stochastic map: residual {res:.3e} >= "
            f"{NORMALIZATION_RESIDUAL_TOL:.0e} (run sinkhorn_normalize first)")


def leibniz_stack(h: BlockMap) -> np.ndarray:
    """The Leibniz terms of Phi: stack[k, i] = B_{i, perms[k, i]}, shape (r!, r, w, w).

    Term k enters every route with sign ``permutation_table(r)[1][k]``.
    """
    perms, _ = permutation_table(h.r)
    return h.blocks[np.arange(h.r), perms]


def phi_direct(h: BlockMap) -> PhiReport:
    """The signed permutation sum over mixed discriminants of block rows."""
    _require_rank(h, range(1, 6), "phi_direct")
    _, signs = permutation_table(h.r)
    # one term at a time: a whole (r!, r!, r, r) row stack costs memory at rank 5
    total = sum(s * mixed_discriminant(word) for s, word in zip(signs, leibniz_stack(h)))
    return _report(total, "direct")


def phi_dual(h: BlockMap) -> PhiReport:
    """The same number from the transposed block family A_pq.

    (A_pq)_ij = (B_ij)_pq.  Expanding D turns Phi into Cayley's
    hyperdeterminant of the order-4 tensor B, which is symmetric under
    swapping the axis pairs (0, 1) and (2, 3); so this is phi_direct on the
    axis-swapped tensor, and agreement with phi_direct checks that symmetry.
    """
    _require_rank(h, range(1, 5), "phi_dual")
    rep = phi_direct(BlockMap(h.blocks.transpose(2, 3, 0, 1)))
    return replace(rep, method="dual")


def c_matrix(h: BlockMap, xi) -> np.ndarray:
    """C(xi) = (xi* B_ij xi): Hermitian, positive definite for positive maps."""
    v = np.asarray(xi, dtype=complex).reshape(-1)
    if v.shape[0] != h.r:
        raise ValueError(f"xi has dim {v.shape[0]}, map has r={h.r}; note w={h.w}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"xi must be a unit vector (|xi| = {norm})")
    return np.einsum("a,ijab,b->ij", v.conj(), h.blocks, v)


def integral_det_c(h: BlockMap) -> complex:
    """Exact int det C(xi) dmu: the Leibniz monomials of det C through moment_exact."""
    _, signs = permutation_table(h.r)
    return signs @ moment_exact(leibniz_stack(h))


def integral_sigma2_c(h: BlockMap) -> complex:
    """Exact int sigma_2(C(xi)) dmu via 2x2 principal minors of C."""
    pairs = np.stack(np.triu_indices(h.r, 1), -1)
    # words[0, p] = (B_ii, B_jj), words[1, p] = (B_ij, B_ji) for pair p = (i, j)
    words = h.blocks[pairs, np.stack([pairs, pairs[:, ::-1]])]
    diag, off = moment_exact(words).sum(-1)
    return diag - off


def phi_integral_r2(h: BlockMap) -> PhiReport:
    """Exact spherical form for r = 2: Phi = int (4 - 3 det C(xi)) dmu >= 1."""
    _require_rank(h, range(2, 3), "phi_integral_r2")
    _require_normalized(h, "phi_integral_r2")
    return _report(4.0 - 3.0 * integral_det_c(h), "integral_r2")


def phi_integral_r3(h: BlockMap) -> PhiReport:
    """Exact spherical form for r = 3 with the positive lower bound.

    Phi = int (10 det C + 27 - 12 sigma_2(C)) dmu, and for positive maps
    Phi >= int det C dmu > 0; the report carries that integral as
    lower_bound.
    """
    _require_rank(h, range(3, 4), "phi_integral_r3")
    _require_normalized(h, "phi_integral_r3")
    idet = integral_det_c(h)
    value = 10.0 * idet + 27.0 - 12.0 * integral_sigma2_c(h)
    return _report(value, "integral_r3", lower_bound=float(idet.real))


class R4Decomposition(NamedTuple):
    integral_part: float
    q_part: float
    total: float


def four_cycle_trace_sum(mats) -> complex | np.ndarray:
    """Q(U_1..U_4): sum over the six 4-cycles of the trace along the cycle, per word."""
    u = np.asarray(mats, dtype=complex)
    if u.ndim < 3 or u.shape[-3] != 4:
        raise ValueError("four_cycle_trace_sum needs exactly 4 matrices")
    return sum(np.trace(u[..., 0, :, :] @ u[..., a, :, :] @ u[..., b, :, :] @ u[..., c, :, :],
                        axis1=-2, axis2=-1)
               for a, b, c in permutations((1, 2, 3)))


def phi_r4_decomposition(h: BlockMap) -> R4Decomposition:
    """Split Phi at r = 4 into its exact-integral part and the 4-cycle residue.

    integral_part = int (35 sigma_4(C) + 128 - (80/3) sigma_2(C)) dmu,
    q_part = -(1/12) sum_sigma sgn(sigma) Q(B_{1 sigma(1)}, ..., B_{4 sigma(4)});
    their sum equals phi_direct.
    """
    _require_rank(h, range(4, 5), "phi_r4_decomposition")
    _require_normalized(h, "phi_r4_decomposition")
    integral = 35.0 * integral_det_c(h) + 128.0 - (80.0 / 3.0) * integral_sigma2_c(h)
    _, signs = permutation_table(4)
    q_part = -(signs @ four_cycle_trace_sum(leibniz_stack(h))) / 12.0
    return R4Decomposition(integral_part=float(integral.real),
                           q_part=float(q_part.real),
                           total=float((integral + q_part).real))


def schur_delta(l1, l2, l3):
    """(sum)^3 + 9 l1 l2 l3 - 4 (sum)(sum of pair products); >= 0 on the
    nonnegative octant, vanishing iff all equal or two equal and one zero.

    Accepts scalars or numpy arrays elementwise.
    """
    a1, a2, a3 = (np.asarray(x, dtype=float) for x in (l1, l2, l3))
    if np.any(a1 < 0) or np.any(a2 < 0) or np.any(a3 < 0):
        raise ValueError("schur_delta needs nonnegative arguments")
    s = a1 + a2 + a3
    out = s ** 3 + 9.0 * a1 * a2 * a3 - 4.0 * s * (a1 * a2 + a1 * a3 + a2 * a3)
    if out.ndim == 0:
        return float(out)
    return out


def rank2_norm_identity(h: BlockMap) -> tuple[float, float, float]:
    """Phi = D(B_11, B_22) + ||B_12||^2 / 2 for normalized rank-2 maps.

    Returns (phi, d_term, norm_term); needs tr(B_12) = 0 within 1e-9.
    """
    _require_rank(h, range(2, 3), "rank2_norm_identity")
    off_trace = abs(complex(np.trace(h.block(0, 1))))
    if off_trace > 1e-9:
        raise ValueError(
            f"off-diagonal block trace {off_trace:.3e} != 0: map is not normalized")
    d_term = mixed_discriminant([h.block(0, 0), h.block(1, 1)])
    norm_term = 0.5 * float(np.trace(h.block(0, 1) @ h.block(1, 0)).real)
    phi = float(d_term.real) + norm_term
    return phi, float(d_term.real), norm_term
