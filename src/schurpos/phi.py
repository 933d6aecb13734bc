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

Here C(xi) is the r x r matrix of quadratic forms (xi* B_ij xi), and all
the integrals are exact moments; no quadrature is involved.

Every route is one signed Leibniz sum ``principal_sum`` over principal
k x k sub-maps, given the diagonal of its kernel: det at k = r (Phi),
``power_moment`` at k = r and 2 (int det C, int sigma_2 C), 6 tr X^4 at
k = 4 (the rank-4 residue).  A term with blocks A_m, T = sum A_m, needs the
diagonal at T and the k sums T - A_j only: the lower subset sums of the
polarization cancel in pairs of permutations of opposite sign.  So Phi at
rank r costs (r+1) r! determinants, not (r!)^2, and ``stack_det`` takes
them as one stack: Leibniz sums in array operations up to rank 4, LAPACK at
rank 5.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .discriminants import mixed_discriminant, power_moment, principal_sum, stack_det
from .posmap import SIDE_SWAP, BlockMap, normalization_residual

#: Integral routes demand this much normalization before they make sense.
NORMALIZATION_RESIDUAL_TOL = 1e-8


@dataclass
class PhiReport:
    value: float
    imaginary_residue: float
    method: str
    lower_bound: float | None = None


def _report(z: complex, method: str, **extra) -> PhiReport:
    if not cmath.isfinite(z):
        raise ValueError(f"Phi by route {method!r} is not finite: the map's "
                         "entries are beyond the float range")
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


def phi_direct(h: BlockMap) -> PhiReport:
    """The signed permutation sum over mixed discriminants of block rows.

    Phi is homogeneous of degree r in the blocks, so a nonzero map with
    max|B|^r below the smallest normal float raises ValueError rather than
    report a value that has underflowed to (or toward) zero.
    """
    _require_rank(h, ROUTES["direct"][1], "phi_direct")
    top = float(abs(h.blocks).max())
    if 0 < top < sys.float_info.min ** (1 / h.r):
        raise ValueError(f"Phi by route 'direct' is below the float range: max|B|^r "
                         f"= {top:.3e}^{h.r} < {sys.float_info.min:.3e} (Phi is "
                         "homogeneous of degree r: rescale the map)")
    return _report(principal_sum(h.blocks, h.r, stack_det), "direct")


def phi_dual(h: BlockMap) -> PhiReport:
    """The same number from the transposed block family A_pq.

    (A_pq)_ij = (B_ij)_pq.  Expanding D turns Phi into Cayley's
    hyperdeterminant of the order-4 tensor B, which is symmetric under
    swapping the axis pairs (0, 1) and (2, 3); so this is phi_direct on the
    axis-swapped tensor, and agreement with phi_direct checks that symmetry.
    """
    _require_rank(h, ROUTES["dual"][1], "phi_dual")
    rep = phi_direct(BlockMap(h.blocks.transpose(SIDE_SWAP)))
    return replace(rep, method="dual")


def c_matrix(h: BlockMap, xi) -> np.ndarray:
    """C(xi) = (xi* B_ij xi): Hermitian, positive definite for positive maps.

    xi is one unit vector (r,) or a stack of them (..., r), giving (..., r, r).
    """
    v = np.asarray(xi, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != h.r:
        raise ValueError(f"xi has shape {v.shape}, map has r={h.r}; note w={h.w}")
    mod = abs(v)
    off = abs(np.sqrt(np.vecdot(mod, mod)) - 1.0)
    # counted rather than .all(): the one-vector call stays as cheap as a norm
    if np.count_nonzero(off <= 1e-12) < off.size:
        raise ValueError(f"xi must be a unit vector (||xi| - 1| = {off.max():.3e})")
    return np.einsum("...a,ijab,...b->...ij", v.conj(), h.blocks, v)


def integral_sigma(h: BlockMap, k: int) -> complex:
    """Exact int sigma_k(C(xi)) dmu: the k x k principal minors of C (det C at
    k = r), their Leibniz monomials each an exact moment."""
    return principal_sum(h.blocks, k, lambda x: power_moment(x, k))


def phi_integral_r2(h: BlockMap) -> PhiReport:
    """Exact spherical form for r = 2: Phi = int (4 - 3 det C(xi)) dmu >= 1."""
    _require_rank(h, ROUTES["integral"][1][:1], "phi_integral_r2")
    _require_normalized(h, "phi_integral_r2")
    return _report(4.0 - 3.0 * integral_sigma(h, h.r), "integral_r2")


def phi_integral_r3(h: BlockMap) -> PhiReport:
    """Exact spherical form for r = 3 with the positive lower bound.

    Phi = int (10 det C + 27 - 12 sigma_2(C)) dmu, and for positive maps
    Phi >= int det C dmu > 0; the report carries that integral as
    lower_bound.
    """
    _require_rank(h, ROUTES["integral"][1][1:], "phi_integral_r3")
    _require_normalized(h, "phi_integral_r3")
    idet = integral_sigma(h, h.r)
    value = 10.0 * idet + 27.0 - 12.0 * integral_sigma(h, 2)
    return _report(value, "integral_r3", lower_bound=float(idet.real))


class R4Decomposition(NamedTuple):
    integral_part: float
    q_part: float
    total: float


def four_cycle_diagonal(x: np.ndarray) -> complex | np.ndarray:
    """Q(X, X, X, X) = 6 tr X^4 per matrix of x (..., w, w), the diagonal of Q:
    Q(U_1..U_4) sums the trace along each of the six 4-cycles."""
    x2 = x @ x
    return 6.0 * np.einsum("...ij,...ji->...", x2, x2)


def phi_r4_decomposition(h: BlockMap) -> R4Decomposition:
    """Split Phi at r = 4 into its exact-integral part and the 4-cycle residue.

    integral_part = int (35 sigma_4(C) + 128 - (80/3) sigma_2(C)) dmu,
    q_part = -(1/12) sum_sigma sgn(sigma) Q(B_{1 sigma(1)}, ..., B_{4 sigma(4)});
    their sum equals phi_direct.
    """
    _require_rank(h, ROUTES["r4"][1], "phi_r4_decomposition")
    _require_normalized(h, "phi_r4_decomposition")
    integral = 35.0 * integral_sigma(h, h.r) + 128.0 - (80.0 / 3.0) * integral_sigma(h, 2)
    q_part = -principal_sum(h.blocks, 4, four_cycle_diagonal) / 12.0
    return R4Decomposition(integral_part=float(integral.real),
                           q_part=float(q_part.real),
                           total=float((integral + q_part).real))


def phi_integral(h: BlockMap) -> PhiReport:
    """The exact spherical form at its rank: phi_integral_r2 or phi_integral_r3."""
    if h.r not in ROUTES["integral"][1]:
        raise ValueError(f"method 'integral' needs rank 2 or 3, map has rank {h.r}")
    return (phi_integral_r2 if h.r == 2 else phi_integral_r3)(h)


def phi_r4(h: BlockMap) -> PhiReport:
    """phi_r4_decomposition as a report: its total, the sum of both parts."""
    return _report(phi_r4_decomposition(h).total, "r4_decomposition")


#: Route name -> (report function, ranks at which it applies): the one table
#: that the rank guards of the route functions and ``phi_reports`` read.  The
#: integral route is phi_integral_r2 at its first rank and phi_integral_r3 at
#: its second.
ROUTES = {
    "direct": (phi_direct, range(1, 6)),
    "dual": (phi_dual, range(1, 5)),
    "integral": (phi_integral, range(2, 4)),
    "r4": (phi_r4, range(4, 5)),
}

#: Rank -> largest ``route_spread`` that ``phi --method all`` and criterion 2 accept.
ROUTE_AGREEMENT_TOL = {1: 1e-9, 2: 1e-9, 3: 1e-9, 4: 1e-8, 5: 1e-8}


def route_spread(reports: list[PhiReport]) -> float:
    """Largest value minus smallest value over ``reports``."""
    return max(rep.value for rep in reports) - min(rep.value for rep in reports)


def phi_reports(h: BlockMap, method: str = "all") -> list[PhiReport]:
    """The report of one route of ROUTES, or with "all" the reports of every
    route that applies at rank h.r.  "all" calls phi_direct first at every
    rank, so that beyond its cap the error is phi_direct's, and the routes
    that are checked against it follow."""
    if method == "all":
        return [phi_direct(h)] + [report(h) for name, (report, ranks) in ROUTES.items()
                                  if name != "direct" and h.r in ranks]
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return [ROUTES[method][0](h)]


#: Argument types of the float path of ``schur_delta``.
_FLOATS = (float, np.float64)


def _delta(a1, a2, a3):
    s = a1 + a2 + a3
    return np.power(s, 3) + 9.0 * a1 * a2 * a3 - 4.0 * s * (a1 * a2 + a1 * a3 + a2 * a3)


def schur_delta(l1, l2, l3):
    """(sum)^3 + 9 l1 l2 l3 - 4 (sum)(sum of pair products); >= 0 on the
    nonnegative octant, vanishing iff all equal or two equal and one zero.

    Accepts finite scalars or numpy arrays elementwise.  Three floats skip
    the broadcast and give the array path's value bit for bit: the cube is
    the ufunc's either way, whose SIMD loop may differ from libm's pow.
    """
    if type(l1) in _FLOATS and type(l2) in _FLOATS and type(l3) in _FLOATS:
        if not (0.0 <= l1 < math.inf and 0.0 <= l2 < math.inf and 0.0 <= l3 < math.inf):
            raise ValueError("schur_delta needs finite nonnegative arguments")
        return float(_delta(float(l1), float(l2), float(l3)))
    a = np.array(np.broadcast_arrays(l1, l2, l3), dtype=float)
    if not (np.isfinite(a) & (a >= 0)).all():
        raise ValueError("schur_delta needs finite nonnegative arguments")
    out = _delta(*a)
    return float(out) if out.ndim == 0 else out


def rank2_norm_identity(h: BlockMap) -> tuple[float, float, float]:
    """Phi = D(B_11, B_22) + ||B_12||^2 / 2 for normalized rank-2 maps.

    Returns (phi, d_term, norm_term); needs tr(B_12) = 0 within 1e-9 x max|B|.
    """
    _require_rank(h, range(2, 3), "rank2_norm_identity")
    off_trace = abs(complex(np.trace(h.blocks[0, 1])))
    if off_trace > 1e-9 * np.abs(h.blocks).max():
        raise ValueError(
            f"off-diagonal block trace {off_trace:.3e} != 0: map is not normalized")
    d_term = mixed_discriminant([h.blocks[0, 0], h.blocks[1, 1]])
    norm_term = 0.5 * float(np.trace(h.blocks[0, 1] @ h.blocks[1, 0]).real)
    phi = float(d_term.real) + norm_term
    return phi, float(d_term.real), norm_term
