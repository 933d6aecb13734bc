"""The four workloads: instance generators, per-item pipelines and checks.

Each workload builds one batch of items from the benchmark seed (the
library receives only the generated inputs) and runs every item through
the same pipeline and tolerances as the acceptance criteria, one public
library call at a time.  Every call goes through ``tr.call`` so a traced
run records a span for it; untraced runs pass straight through.

Why these four: each stresses different layers (see README.md for the
metric -> workload prediction table).

* certify_r23      - posmap (certificate, Sinkhorn) and hermitian; phi is light.
* phi_all_r345     - phi routes on maps normalized during set-up.
* moments_mc       - discriminants.moment_mc at the full 10^6 samples per word.
* forms_positivity - forms only: Chern/Schur forms and weak positivity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Tolerances of ``schurpos verify`` (criteria 2, 4, 5, 6, 8, 9, 10) plus the
#: certificate threshold ``sinkhorn_normalize`` applies.  A check passes when
#: ``value <op> limit``; the report keeps the extreme seen on the failing side.
LIMITS = {
    "check.min_certificate_eig": (">", 1e-12),
    "check.min_phi_r2": (">=", 1.0 - 1e-9),
    "check.min_norm_term_r2": (">=", 0.0),
    "check.max_split_error_r2": ("<", 1e-10),
    "check.min_lower_bound_r3": (">", 0.0),
    "check.max_bound_gap_r3": ("<=", 1e-10),
    "check.max_route_spread": ("<", 1e-9),
    "check.max_route_spread_r4": ("<", 1e-8),
    "check.min_phi": (">", 0.0),
    "check.max_pointwise_gap": ("<", 1e-9),
    "check.max_mc_sigmas": ("<", 5.0),
    "check.max_minor_diff": ("<", 1e-11),
    "check.min_weak_positivity": (">", 0.0),
}

_OPS = {">": float.__gt__, ">=": float.__ge__, "<": float.__lt__, "<=": float.__le__}

SINKHORN_TOL = 1e-11
SINKHORN_MAX_ITER = 1000
CERTIFICATE_GRID = 256
MC_SAMPLES = 1_000_000
WP_SAMPLES = 10_000
POINTWISE_XIS = 20


class CheckFailed(Exception):
    """An output fell outside its tolerance."""


class Checks:
    """Running extreme of every checked quantity."""

    def __init__(self):
        self.extremes: dict[str, float] = {}

    def record(self, name: str, value: float) -> None:
        op, limit = LIMITS[name]
        value = float(value)
        keep_min = op.startswith(">")
        old = self.extremes.get(name)
        if old is None or (value < old if keep_min else value > old):
            self.extremes[name] = value
        if not _OPS[op](value, float(limit)):
            raise CheckFailed(f"{name}: {value!r} violates {op} {limit!r}")

    @staticmethod
    def require(cond: bool, what: str) -> None:
        if not cond:
            raise CheckFailed(what)


@dataclass
class Item:
    kind: str
    data: Any
    seed: int


def sub_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence([int(base)] + [int(k) for k in key])
    return int(ss.generate_state(1, np.uint32)[0])


def _kraus_map(lib, tr, r: int, rng: np.random.Generator, terms: int = 3,
               eps: float = 0.2):
    scale = 1.0 / np.sqrt(2.0 * r * terms)
    cs = [scale * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
          for _ in range(terms)]
    return tr.call("posmap.from_kraus", f"r{r}", lib.posmap.from_kraus, cs, eps)


def _unit_vectors(rng: np.random.Generator, count: int, r: int) -> np.ndarray:
    z = rng.standard_normal((count, r)) + 1j * rng.standard_normal((count, r))
    return z / np.linalg.norm(z, axis=1)[:, None]


def _normalize(lib, tr, h):
    res = tr.call("posmap.sinkhorn_normalize", f"r{h.r}", lib.posmap.sinkhorn_normalize,
                  h, tol=SINKHORN_TOL, max_iter=SINKHORN_MAX_ITER, check_positive=False)
    tr.annotate(iterations=res.iterations, converged=int(res.converged))
    Checks.require(res.converged, f"Sinkhorn residual {res.residual:.3e} after "
                                  f"{res.iterations} iterations")
    return res.scaled


# ---------------------------------------------------------------------------
# certify_r23
# ---------------------------------------------------------------------------

class CertifyR23:
    """Rank-2 and rank-3 Kraus maps in equal numbers, about 10% of the rank-3
    ones mixed with the Choi fixture: certificate, Sinkhorn, Phi routes and
    the pointwise integrand identity."""

    name = "certify_r23"
    reference = "interp"
    sizes = {"full": 50, "tiny": 2}

    def describe(self, size: str) -> str:
        n = self.sizes[size]
        return (f"{n} rank-2 + {n} rank-3 Kraus maps ({self._choi_count(n)} of the "
                f"rank-3 mixed with the Choi fixture); {POINTWISE_XIS} xi per map")

    @staticmethod
    def _choi_count(n: int) -> int:
        return max(1, round(0.1 * n))

    def generate(self, lib, seed: int, size: str, tr) -> list[Item]:
        n = self.sizes[size]
        choi = tr.call("posmap.choi_fixture", "", lib.posmap.choi_fixture)
        items = []
        for k in range(n):
            for r in (2, 3):
                rng = np.random.default_rng(sub_seed(seed, 1, r, k))
                h = _kraus_map(lib, tr, r, rng)
                kind = f"r{r}"
                if r == 3 and k < self._choi_count(n):
                    t = float(rng.uniform(0.2, 0.9))
                    h = lib.posmap.BlockMap(t * choi.blocks + (1.0 - t) * h.blocks)
                    kind = "r3choi"
                items.append(Item(kind, h, sub_seed(seed, 2, r, k)))
        return items

    def run_item(self, lib, item: Item, tr, checks: Checks) -> None:
        h = item.data
        r = h.r
        min_eig, _ = tr.call("posmap.positivity_certificate", f"r{r}",
                             lib.posmap.positivity_certificate, h,
                             CERTIFICATE_GRID, item.seed)
        tr.annotate(passed=int(min_eig > LIMITS["check.min_certificate_eig"][1]))
        checks.record("check.min_certificate_eig", min_eig)

        hn = _normalize(lib, tr, h)

        direct = tr.call("phi.phi_direct", f"r{r}", lib.phi.phi_direct, hn).value
        if r == 2:
            integral = tr.call("phi.phi_integral_r2", "r2", lib.phi.phi_integral_r2, hn)
            total, _, norm_term = tr.call("phi.rank2_norm_identity", "r2",
                                          lib.phi.rank2_norm_identity, hn)
            checks.record("check.min_phi_r2", direct)
            checks.record("check.min_norm_term_r2", norm_term)
            checks.record("check.max_split_error_r2", abs(direct - total))
        else:
            integral = tr.call("phi.phi_integral_r3", "r3", lib.phi.phi_integral_r3, hn)
            checks.record("check.min_lower_bound_r3", integral.lower_bound)
            checks.record("check.max_bound_gap_r3", integral.lower_bound - integral.value)
        checks.record("check.max_route_spread", abs(direct - integral.value))

        # Pointwise integrand identities; both use tr C(xi) = r on normalized maps.
        # r = 3 (criterion 10): 10 det C + 27 - 12 sigma_2 = det C + delta(lambda).
        # r = 2: 4 - 3 det C = 1 + (3/8) delta(l1, l2, 0), the pointwise form of Phi >= 1.
        rng = np.random.default_rng(sub_seed(item.seed, 3))
        for xi in _unit_vectors(rng, POINTWISE_XIS, r):
            c = tr.call("phi.c_matrix", f"r{r}", lib.phi.c_matrix, hn, xi)
            det_c = float(tr.call("hermitian.det", f"r{r}", lib.hermitian.det, c).real)
            lam = np.maximum(tr.call("hermitian.herm_eigvals", f"r{r}",
                                     lib.hermitian.herm_eigvals, c), 0.0)
            if r == 2:
                delta = tr.call("phi.schur_delta", "r2", lib.phi.schur_delta,
                                lam[0], lam[1], 0.0)
                gap = (4.0 - 3.0 * det_c) - 1.0 - 0.375 * delta
            else:
                delta = tr.call("phi.schur_delta", "r3", lib.phi.schur_delta,
                                lam[0], lam[1], lam[2])
                sigma2 = float(lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2])
                gap = 10.0 * det_c + 27.0 - 12.0 * sigma2 - det_c - delta
            checks.record("check.max_pointwise_gap", abs(gap))


# ---------------------------------------------------------------------------
# phi_all_r345
# ---------------------------------------------------------------------------

class PhiAllR345:
    """The ``phi --method all`` path on JSON maps normalized during set-up:
    mostly rank 3, one rank-4 and one rank-5 map (rank 5: direct only)."""

    name = "phi_all_r345"
    reference = "interp"
    sizes = {"full": (100, 1, 1), "tiny": (2, 1, 1)}

    def describe(self, size: str) -> str:
        n3, n4, n5 = self.sizes[size]
        return (f"{n3} rank-3 + {n4} rank-4 + {n5} rank-5 normalized maps as JSON; "
                f"routes direct, dual (r <= 4), integral_r3 / r4_decomposition")

    def generate(self, lib, seed: int, size: str, tr) -> list[Item]:
        items = []
        for r, count in zip((3, 4, 5), self.sizes[size]):
            for k in range(count):
                rng = np.random.default_rng(sub_seed(seed, 4, r, k))
                hn = _normalize(lib, tr, _kraus_map(lib, tr, r, rng))
                obj = tr.call("serialization.block_map_to_json", f"r{r}",
                              lib.serialization.block_map_to_json, hn)
                items.append(Item(f"r{r}", obj, 0))
        return items

    def run_item(self, lib, item: Item, tr, checks: Checks) -> None:
        ser, phi = lib.serialization, lib.phi
        h = tr.call("serialization.block_map_from_json", item.kind,
                    ser.block_map_from_json, item.data)
        r = h.r
        reports = [tr.call("phi.phi_direct", f"r{r}", phi.phi_direct, h)]
        if r <= 4:
            reports.append(tr.call("phi.phi_dual", f"r{r}", phi.phi_dual, h))
        if r == 3:
            reports.append(tr.call("phi.phi_integral_r3", "r3", phi.phi_integral_r3, h))
        elif r == 4:
            dec = tr.call("phi.phi_r4_decomposition", "r4", phi.phi_r4_decomposition, h)
            reports.append(phi.PhiReport(value=dec.total, imaginary_residue=0.0,
                                         method="r4_decomposition"))
        values = [rep.value for rep in reports]
        spread = max(values) - min(values)
        if r <= 3:
            checks.record("check.max_route_spread", spread)
        elif r == 4:
            checks.record("check.max_route_spread_r4", spread)
        checks.record("check.min_phi", min(values))
        obj = {"reports": [tr.call("serialization.phi_report_to_json", f"r{r}",
                                   ser.phi_report_to_json, rep) for rep in reports],
               "max_spread": spread}
        text = tr.call("serialization.dump", f"r{r}", ser.dump, obj, None)
        Checks.require(json.loads(text) == obj, "dumped report does not read back")


# ---------------------------------------------------------------------------
# moments_mc
# ---------------------------------------------------------------------------

class MomentsMC:
    """Words of random Hermitian matrices at criterion 6's shapes, two thirds
    of them n = 2: exact moment against 10^6-sample Monte Carlo."""

    name = "moments_mc"
    reference = "array"
    # words per (r, n) shape, and Monte Carlo samples per word
    sizes = {"full": ({(2, 2): 2, (3, 2): 2, (3, 3): 1, (4, 4): 1}, MC_SAMPLES),
             "tiny": ({(2, 2): 1, (3, 2): 1, (3, 3): 1, (4, 4): 1}, 10_000)}

    def describe(self, size: str) -> str:
        shapes, samples = self.sizes[size]
        mix = ", ".join(f"{c} x (r={r}, n={n})" for (r, n), c in shapes.items())
        return f"{mix} words; {samples} Monte Carlo samples per word"

    def generate(self, lib, seed: int, size: str, tr) -> list[Item]:
        shapes, samples = self.sizes[size]
        items = []
        for (r, n), count in shapes.items():
            for k in range(count):
                rng = np.random.default_rng(sub_seed(seed, 5, r, n, k))
                us = []
                for _ in range(n):
                    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                    us.append((a + a.conj().T) / 2.0)
                items.append(Item(f"r{r}n{n}", (us, samples), sub_seed(seed, 6, r, n, k)))
        return items

    def run_item(self, lib, item: Item, tr, checks: Checks) -> None:
        us, samples = item.data
        disc = lib.discriminants
        exact = tr.call("discriminants.moment_exact", item.kind, disc.moment_exact, us)
        est, stderr = tr.call("discriminants.moment_mc", item.kind, disc.moment_mc,
                              us, samples, item.seed)
        tr.annotate(samples=samples)
        if stderr > 0.0:
            checks.record("check.max_mc_sigmas", abs(est - exact) / stderr)


# ---------------------------------------------------------------------------
# forms_positivity
# ---------------------------------------------------------------------------

SCHUR_PARTITIONS = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0))


class FormsPositivity:
    """Griffiths positive curvature tensors in equal numbers at four
    (rank, dim) shapes: Chern forms, the principal-minor route to c3, the six
    nontrivial Schur forms at (3, 3), and weak positivity of each."""

    name = "forms_positivity"
    reference = "interp"
    shapes = ((3, 3), (4, 3), (5, 3), (3, 4))
    sizes = {"full": (26, WP_SAMPLES), "tiny": (1, 500)}

    def describe(self, size: str) -> str:
        per, samples = self.sizes[size]
        mix = ", ".join(f"(r={r}, n={n})" for r, n in self.shapes)
        return (f"{per} tensors at each of {mix}; weak positivity at {samples} "
                f"samples per form")

    def generate(self, lib, seed: int, size: str, tr) -> list[Item]:
        per, samples = self.sizes[size]
        items = []
        for k in range(per):
            for rank, dim in self.shapes:
                rng = np.random.default_rng(sub_seed(seed, 7, rank, dim, k))
                entries = np.zeros((rank, rank, dim, dim), dtype=complex)
                for _ in range(rank):
                    t = (rng.standard_normal((rank, dim))
                         + 1j * rng.standard_normal((rank, dim)))
                    entries += np.einsum("ia,jb->ijab", t, t.conj())
                for i in range(rank):
                    for a in range(dim):
                        entries[i, i, a, a] += 0.2
                tensor = lib.forms.CurvatureTensor(rank=rank, dim=dim, entries=entries)
                items.append(Item(f"r{rank}n{dim}", (tensor, samples),
                                  sub_seed(seed, 8, rank, dim, k)))
        return items

    def run_item(self, lib, item: Item, tr, checks: Checks) -> None:
        tensor, samples = item.data
        forms = lib.forms
        cs = tr.call("forms.chern_forms", item.kind, forms.chern_forms, tensor)
        minors = tr.call("forms.c3_principal_minors", item.kind,
                         forms.c3_principal_minors, tensor)
        checks.record("check.max_minor_diff",
                      tr.call("forms.max_coeff_diff", "", forms.max_coeff_diff,
                              cs[3], minors))
        targets = [(3, cs[3])]
        if (tensor.rank, tensor.dim) == (3, 3):
            for parts in SCHUR_PARTITIONS:
                targets.append((sum(parts), tr.call("forms.schur_form", item.kind,
                                                    forms.schur_form, cs, parts)))
        for k, (degree, form) in enumerate(targets):
            q = tensor.dim - degree
            value, _ = tr.call("forms.weak_positivity_min", f"q{q}",
                               forms.weak_positivity_min, form, samples,
                               sub_seed(item.seed, k))
            tr.annotate(samples=samples)
            checks.record("check.min_weak_positivity", value)


WORKLOADS = {wl.name: wl for wl in (CertifyR23(), PhiAllR345(), MomentsMC(),
                                    FormsPositivity())}
