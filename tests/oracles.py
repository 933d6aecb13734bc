"""Helpers that only the tests call: independent oracles of the library's
kernels, and small constructions the tests check the library against.

* ``mixed_discriminant_polarized``, ``trace_expansion_r2`` and
  ``trace_expansion_r3`` compute ``mixed_discriminant`` by routes that share
  none of its arithmetic;
* ``loop_phi_direct`` is the double mixed discriminant Phi as a complex sum
  with one ``mixed_discriminant`` call per permutation of ``signed_perms``;
* ``apply_map`` and ``transpose_map`` evaluate and build block maps;
* ``dense_newton_system`` assembles the joint (x, y) Newton system of
  operator scaling block by block, the reference that the reduced system of
  ``posmap._newton_iteration`` is checked against;
* ``plain_certificate`` is ``posmap.positivity_certificate`` with the
  plain seesaw alone, no Newton step, the reference that the certificate
  may never read above;
* ``restrict_fiber``, ``conjugate`` and ``is_real_pp`` act on curvature
  tensors and forms;
* ``written_coeffs`` reads back the coefficients of a form that
  ``serialization.form_to_json`` wrote.
"""

import itertools
import math

import numpy as np

from schurpos.discriminants import _check_stack, mixed_discriminant, subset_table
from schurpos.forms import CurvatureTensor, Form, max_coeff_diff
from schurpos.hermitian import as_matrix
from schurpos.posmap import BlockMap, _grid_minimum, _outputs


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


def signed_perms(n):
    """Permutations of range(n) from itertools, with inversion-parity signs."""
    for perm in itertools.permutations(range(n)):
        inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        yield perm, (-1) ** inv


def loop_phi_direct(h: BlockMap) -> complex:
    """Phi = sum_sigma sgn(sigma) D(B_{1 sigma(1)}, ..., B_{r sigma(r)}), complex,
    one ``mixed_discriminant`` call per permutation."""
    total = 0j
    for perm, sign in signed_perms(h.r):
        total += sign * mixed_discriminant([h.blocks[i, perm[i]] for i in range(h.r)])
    return total


def transpose_map(r: int) -> BlockMap:
    """H(X) = X^T: blocks B_ij = E_ji."""
    return BlockMap(np.einsum("ib,ja->ijab", np.eye(r), np.eye(r)))


def apply_map(h: BlockMap, x) -> np.ndarray:
    """H(x) = sum_ij x_ij B_ij."""
    m = as_matrix(x)
    if m.shape[0] != h.r:
        raise ValueError(f"argument dim {m.shape[0]} != map input dim {h.r}")
    return np.einsum("ij,ijab->ab", m, h.blocks)


def _anticommutator(m: np.ndarray) -> np.ndarray:
    """Matrix of X -> (XM + MX)/2 on row-major vec(X)."""
    e = np.eye(len(m))
    k = e[:, None, :, None] * m.T[None, :, None, :] + m[:, None, :, None] * e[None, :, None, :]
    return k.reshape(len(m) ** 2, -1) / 2


def dense_newton_system(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian and right-hand side of the Newton step of operator scaling,
    assembled block by block from anticommutator matrices, with the gauge
    row and column r^2 dropped."""
    r = blocks.shape[0]
    eye = r * np.eye(r)
    m, n = np.einsum("iiab->ab", blocks), np.einsum("ijaa->ij", blocks)
    jac = np.empty((2 * r * r, 2 * r * r), dtype=complex)
    jac[:r * r, :r * r] = _anticommutator(m)
    jac[:r * r, r * r:] = blocks.transpose(2, 3, 1, 0).reshape(r * r, r * r)
    jac[r * r:, :r * r] = blocks.transpose(0, 1, 3, 2).reshape(r * r, r * r)
    jac[r * r:, r * r:] = _anticommutator(n)
    rhs = np.concatenate([(m - eye).ravel(), (n - eye).ravel()])
    keep = np.arange(2 * r * r) != r * r
    return jac[keep][:, keep], rhs[keep]


def plain_seesaw(blocks: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The seesaw of exact minimizations of u* H(xi xi*) u from xi, in plain
    rounds: u = bottom eigenvector of H(xi xi*), then xi = conj of the
    bottom eigenvector of K_ij = u* B_ij u, until a round lowers the value
    by at most 1e-15 x max|B| or 2000 rounds have run."""
    r, w = blocks.shape[0], blocks.shape[2]
    tol = 1e-15 * float(abs(blocks).max())
    rows, stack = blocks.reshape(r, -1), blocks.reshape(r * r, w, w)
    best, val = xi, np.inf
    for _ in range(2000):
        out = xi.conj() @ (xi @ rows).reshape(r, -1)
        vals, vecs = np.linalg.eigh(out.reshape(w, w))
        if vals[0] < val:
            best = xi
        if not vals[0] < val - tol:
            break
        val, u = vals[0], vecs[:, 0]
        k = stack @ u @ u.conj()
        xi = np.linalg.eigh(k.reshape(r, r))[1][:, 0].conj()
    return best


def plain_certificate(h: BlockMap, grid: int, seed: int) -> tuple[float, np.ndarray]:
    """The grid minimum refined by ``plain_seesaw``, reported like
    ``positivity_certificate``: whichever of the two reads lower."""
    best_val, best_xi = _grid_minimum(h, grid, seed)
    refined = plain_seesaw(h.blocks, best_xi)
    val = float(np.linalg.eigvalsh(_outputs(h, refined[None]))[0, 0])
    return (val, refined) if val < best_val else (best_val, best_xi)


def restrict_fiber(tensor: CurvatureTensor, subset) -> CurvatureTensor:
    """Sub-tensor on the chosen fiber indices (0-based, distinct)."""
    idx = list(subset)
    if len(set(idx)) != len(idx) or any(i < 0 or i >= tensor.rank for i in idx):
        raise ValueError(f"invalid fiber subset {subset} for rank {tensor.rank}")
    sub = tensor.entries[np.ix_(idx, idx)]
    return CurvatureTensor(rank=len(idx), dim=tensor.dim, entries=sub)


def conjugate(u: Form) -> Form:
    """Complex conjugate form: swaps I and J with the (-1)^{pq} reorder sign."""
    return Form(u.n, u.q, u.p, (-1) ** (u.p * u.q) * u.coeffs.conj().T)


def is_real_pp(u: Form, tol: float = 1e-12) -> bool:
    """Check the reality invariant u_{J,I} = (-1)^p conj(u_{I,J}), that is,
    that u is a (p, p)-form equal to its conjugate."""
    return u.p == u.q and max_coeff_diff(u, conjugate(u)) <= tol


def written_coeffs(obj: dict) -> np.ndarray:
    """The coefficient matrix of a written (p, p)-form, checking that its
    entries run exactly once over the 1-based (I, J) in ``combinations`` order."""
    ks = [list(k) for k in itertools.combinations(range(1, obj["n"] + 1), obj["p"])]
    assert [(e["I"], e["J"]) for e in obj["entries"]] == list(itertools.product(ks, ks))
    return np.array([complex(*e["val"]) for e in obj["entries"]]).reshape(len(ks), len(ks))
