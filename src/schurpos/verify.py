"""The acceptance suite: one function per criterion, shared by CLI and CI.

Each criterion function is deterministic in its seed, runs its full
desk-scale instance count by default, and returns a CriterionResult with
the measured extremes.  ``limit`` caps the per-family instance counts for
smoke runs; tolerances never change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forms, phi
from .discriminants import moment_exact, moment_mc, require_int, sample_unit_sphere
from .hermitian import det
from .posmap import (BlockMap, choi_fixture, random_kraus_map,
                     sinkhorn_normalize, trace_map)

#: Full instance counts, straight from the acceptance contract.
FULL_COUNTS = {
    "method_agreement_per_rank": 100,
    "method_agreement_r4": 25,
    "covariance_triples": 100,
    "rank_two_maps": 1000,
    "rank_three_maps": 1000,
    "rank_three_choi_mixtures": 100,
    "moment_words": 50,
    "moment_mc_samples": 1_000_000,
    "schur_instances": 50,
    "minor_tensors": 50,
    "weak_positivity_per_case": 50,
    "schur_grid": 50,
    "integrand_xis": 1000,
    "twist_instances": 50,
}


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}" + (f" ({extras})" if extras else "")


def _sub_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence([int(base)] + [int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _count(full: int, limit: int | None) -> int:
    return full if limit is None else max(1, min(full, limit))


#: Kraus terms and positivity margin of every random map the criteria draw.
KRAUS_TERMS = 3
KRAUS_EPS = 0.2


def _normalized(h: BlockMap) -> BlockMap:
    res = sinkhorn_normalize(h, tol=1e-11, max_iter=1000, check_positive=False)
    if not res.converged:
        raise RuntimeError(f"scaling failed to converge (residual {res.residual:.3e})")
    return res.scaled


def _normalized_random_map(r: int, seed: int) -> BlockMap:
    return _normalized(random_kraus_map(r, KRAUS_TERMS, KRAUS_EPS, seed))


def _normalized_choi_mixture(seed: int) -> BlockMap:
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.2, 0.9))
    kraus = random_kraus_map(3, KRAUS_TERMS, KRAUS_EPS, _sub_seed(seed, 1))
    return _normalized(BlockMap(t * choi_fixture().blocks + (1.0 - t) * kraus.blocks))


def _random_invertible(r: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if abs(det(m)) > 0.1:
            return m


def _random_hermitian(r: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1_exact_fixed_point(seed: int, limit: int | None = None) -> CriterionResult:
    """Phi(trace map) = 1 for r in {2,3,4} by every applicable method, to 1e-12."""
    values = [v for r in (2, 3, 4) for rep in phi.phi_reports(trace_map(r))
              for v in (rep.value, rep.lower_bound) if v is not None]
    values.append(phi.rank2_norm_identity(trace_map(2))[0])
    worst = max(abs(v - 1.0) for v in values)
    return CriterionResult("1 exact fixed point", worst < 1e-12,
                           {"max_abs_error": f"{worst:.2e}"})


def criterion_2_method_agreement(seed: int, limit: int | None = None) -> CriterionResult:
    """The ``phi.route_spread`` of the routes of ``phi.phi_reports`` stays within
    ``phi.ROUTE_AGREEMENT_TOL`` of its rank: 1e-9 at r=2,3 and 1e-8 at r=4."""
    def spread(r: int, idx: int) -> float:
        return phi.route_spread(phi.phi_reports(
            _normalized_random_map(r, _sub_seed(seed, 2, r, idx))))

    worst23 = max(spread(r, idx) for r in (2, 3)
                  for idx in range(_count(FULL_COUNTS["method_agreement_per_rank"], limit)))
    worst4 = max(spread(4, idx)
                 for idx in range(_count(FULL_COUNTS["method_agreement_r4"], limit)))
    tol = phi.ROUTE_AGREEMENT_TOL
    passed = worst23 < min(tol[2], tol[3]) and worst4 < tol[4]
    return CriterionResult("2 method agreement", passed,
                           {"max_diff_r23": f"{worst23:.2e}",
                            "max_diff_r4": f"{worst4:.2e}"})


def criterion_3_scaling_covariance(seed: int, limit: int | None = None) -> CriterionResult:
    """Phi(S_{C1,C2} h) = |det C1|^2 |det C2|^2 Phi(h) to relative 1e-8 at r=3."""
    from .posmap import scale
    worst = 0.0
    for idx in range(_count(FULL_COUNTS["covariance_triples"], limit)):
        rng = np.random.default_rng(_sub_seed(seed, 3, idx))
        h = random_kraus_map(3, 3, 0.3, _sub_seed(seed, 3, idx, 1))
        c1 = _random_invertible(3, rng)
        c2 = _random_invertible(3, rng)
        base = phi.phi_direct(h).value
        scaled = phi.phi_direct(scale(h, c1, c2)).value
        factor = abs(det(c1)) ** 2 * abs(det(c2)) ** 2
        rel = abs(scaled - factor * base) / max(abs(factor * base), 1e-30)
        worst = max(worst, rel)
    return CriterionResult("3 scaling covariance", worst < 1e-8,
                           {"max_rel_error": f"{worst:.2e}"})


def criterion_4_rank_two_bound(seed: int, limit: int | None = None) -> CriterionResult:
    """1000 normalized rank-2 maps: Phi >= 1 - 1e-9, Phi = d + norm, norm >= 0."""
    min_phi = np.inf
    min_norm = np.inf
    worst_split = 0.0
    for idx in range(_count(FULL_COUNTS["rank_two_maps"], limit)):
        h = _normalized_random_map(2, _sub_seed(seed, 4, idx))
        value = phi.phi_direct(h).value
        total, d_term, norm_term = phi.rank2_norm_identity(h)
        min_phi = min(min_phi, value)
        min_norm = min(min_norm, norm_term)
        worst_split = max(worst_split, abs(value - total))
    passed = min_phi >= 1.0 - 1e-9 and min_norm >= 0.0 and worst_split < 1e-10
    return CriterionResult("4 rank-two bound", passed,
                           {"min_phi": f"{min_phi:.12f}",
                            "min_norm_term": f"{min_norm:.2e}",
                            "max_split_error": f"{worst_split:.2e}"})


def criterion_5_rank_three_theorem(seed: int, limit: int | None = None) -> CriterionResult:
    """1000 normalized rank-3 maps (incl. Choi mixtures): Phi >= lower bound > 0."""
    total = _count(FULL_COUNTS["rank_three_maps"], limit)
    mixtures = min(_count(FULL_COUNTS["rank_three_choi_mixtures"], limit), total)
    min_phi = np.inf
    min_bound = np.inf
    worst_gap = 0.0
    for idx in range(total):
        if idx < mixtures:
            h = _normalized_choi_mixture(_sub_seed(seed, 5, 1, idx))
        else:
            h = _normalized_random_map(3, _sub_seed(seed, 5, 0, idx))
        rep = phi.phi_integral_r3(h)
        min_phi = min(min_phi, rep.value)
        min_bound = min(min_bound, rep.lower_bound)
        worst_gap = max(worst_gap, rep.lower_bound - rep.value)
    passed = min_bound > 0.0 and worst_gap <= 1e-10
    return CriterionResult("5 rank-three theorem", passed,
                           {"min_phi": f"{min_phi:.6f}",
                            "min_lower_bound": f"{min_bound:.6f}",
                            "max_bound_violation": f"{worst_gap:.2e}"})


def criterion_6_moment_identities(seed: int, limit: int | None = None) -> CriterionResult:
    """Monte Carlo within 5 stderr of exact moments; r=3 n=2 closed form to 1e-12.
    The words of one (r, n) shape share one Monte Carlo stream; stderr 0 reads 0 sigmas."""
    samples = max(10_000, _count(FULL_COUNTS["moment_mc_samples"], limit))
    words = _count(FULL_COUNTS["moment_words"], limit)

    def hermitian_words(r: int, n: int, *key: int) -> np.ndarray:
        rngs = (np.random.default_rng(_sub_seed(seed, 6, *key, idx)) for idx in range(words))
        return np.array([[_random_hermitian(r, rng) for _ in range(n)] for rng in rngs])

    worst_sigma = 0.0
    for r, n in ((2, 2), (3, 2), (3, 3), (4, 4)):
        us = hermitian_words(r, n, r, n)
        est, stderr = moment_mc(us, samples, _sub_seed(seed, 6, r, n))
        sigmas = abs(est - moment_exact(us)) / np.where(stderr > 0.0, stderr, np.inf)
        worst_sigma = max(worst_sigma, float(sigmas.max()))
    u, v = hermitian_words(3, 2, 32).transpose(1, 0, 2, 3)
    closed = (np.trace(u, axis1=1, axis2=2) * np.trace(v, axis1=1, axis2=2)
              + np.trace(u @ v, axis1=1, axis2=2)) / 12.0
    worst_closed = float(abs(moment_exact(np.stack([u, v], 1)) - closed).max())
    passed = worst_sigma < 5.0 and worst_closed < 1e-12
    return CriterionResult("6 moment identities", passed,
                           {"max_mc_sigmas": f"{worst_sigma:.2f}",
                            "max_closed_form_error": f"{worst_closed:.2e}"})


def _explicit_weight3_schur(cs: list[forms.Form], parts: tuple[int, ...]) -> forms.Form:
    c1, c2, c3 = cs[1], cs[2], cs[3]
    if parts == (1, 1, 1):
        return (forms.wedge(forms.wedge(c1, c1), c1)
                - 2.0 * forms.wedge(c1, c2) + c3)
    if parts == (2, 1, 0):
        return forms.wedge(c1, c2) - c3
    if parts == (3, 0, 0):
        return c3
    raise ValueError(f"no explicit expansion for {parts}")


def criterion_7_schur_identities(seed: int, limit: int | None = None) -> CriterionResult:
    """Schur determinants match the explicit weight-3 expansions coefficientwise."""
    worst = 0.0
    for idx in range(_count(FULL_COUNTS["schur_instances"], limit)):
        tensor = forms.random_griffiths_curvature(3, 3, 2, 0.3,
                                                  _sub_seed(seed, 7, idx))
        cs = forms.chern_forms(tensor)
        scale_ref = max(c.max_abs() for c in cs[1:])
        for parts in ((1, 1, 1), (2, 1, 0), (3, 0, 0)):
            got = forms.schur_form(cs, parts)
            want = _explicit_weight3_schur(cs, parts)
            worst = max(worst, forms.max_coeff_diff(got, want) / max(scale_ref, 1.0))
    return CriterionResult("7 Schur-form identities", worst < 1e-12,
                           {"max_rel_coeff_diff": f"{worst:.2e}"})


def criterion_8_principal_minors(seed: int, limit: int | None = None) -> CriterionResult:
    """c3 from principal minors equals chern_forms[3] within 1e-11, r in {3,4,5}."""
    total = _count(FULL_COUNTS["minor_tensors"], limit)
    worst = 0.0
    for idx in range(total):
        rank = (3, 4, 5)[idx % 3]
        tensor = forms.random_griffiths_curvature(rank, 3, 2, 0.3,
                                                  _sub_seed(seed, 8, idx))
        c3 = forms.chern_forms(tensor)[3]
        minors = forms.c3_principal_minors(tensor)
        worst = max(worst, forms.max_coeff_diff(c3, minors))
    return CriterionResult("8 principal-minor identity", worst < 1e-11,
                           {"max_coeff_diff": f"{worst:.2e}"})


def criterion_9_weak_positivity(seed: int, limit: int | None = None) -> CriterionResult:
    """Weak positivity of c3 (four (rank, dim) cases) and of all six nontrivial
    Schur forms at rank = dim = 3; any negative minimum fails.  Reports how
    many minima were exact eigenvalues and how many sampled."""
    per_case = _count(FULL_COUNTS["weak_positivity_per_case"], limit)
    min_tau = np.inf
    worst_case = ""
    exact = {True: 0, False: 0}
    for rank, dim in ((3, 3), (4, 3), (5, 3), (3, 4)):
        for idx in range(per_case):
            sub = _sub_seed(seed, 9, rank, dim, idx)
            tensor = forms.random_griffiths_curvature(rank, dim, rank, 0.2, sub)
            cs = forms.chern_forms(tensor)
            targets = [("c3", cs[3])]
            if (rank, dim) == (3, 3):
                for parts in ((1, 0, 0), (1, 1, 0), (1, 1, 1),
                              (2, 0, 0), (2, 1, 0), (3, 0, 0)):
                    targets.append((f"P{parts}", forms.schur_form(cs, parts)))
            for name, form in targets:
                val, _ = forms.weak_positivity_min(form)
                exact[forms.weak_positivity_is_exact(form)] += 1
                if val < min_tau:
                    min_tau = val
                    worst_case = f"{name} r={rank} n={dim} idx={idx}"
    return CriterionResult("9 weak positivity sweep", min_tau > 0.0,
                           {"min_volume_coeff": f"{min_tau:.6e}",
                            "tightest": worst_case, "exact_targets": exact[True],
                            "sampled_targets": exact[False]})


def criterion_10_schur_inequality(seed: int, limit: int | None = None) -> CriterionResult:
    """Delta >= -1e-12 on a [0,3]^3 grid, zero on both equality families, and the
    pointwise integrand identity on sampled xi within 1e-9."""
    grid_n = FULL_COUNTS["schur_grid"] if limit is None else max(3, min(50, limit))
    ts = np.linspace(0.0, 3.0, grid_n)
    g1, g2, g3 = np.meshgrid(ts, ts, ts, indexing="ij")
    delta = phi.schur_delta(g1.ravel(), g2.ravel(), g3.ravel())
    grid_min = float(np.min(delta))
    eq_worst = max(
        float(np.max(np.abs(phi.schur_delta(ts, ts, ts)))),
        float(np.max(np.abs(phi.schur_delta(ts, ts, np.zeros_like(ts))))),
        float(np.max(np.abs(phi.schur_delta(ts, np.zeros_like(ts), ts)))),
        float(np.max(np.abs(phi.schur_delta(np.zeros_like(ts), ts, ts)))),
    )
    h = _normalized_random_map(3, _sub_seed(seed, 10, 0))
    rng = np.random.default_rng(_sub_seed(seed, 10, 1))
    c = phi.c_matrix(h, sample_unit_sphere(rng, _count(FULL_COUNTS["integrand_xis"], limit), 3))
    det_c = np.linalg.det(c).real
    lam = np.maximum(np.linalg.eigvalsh(c), 0.0).T
    sigma2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
    integrand = 10.0 * det_c + 27.0 - 12.0 * sigma2
    worst_pointwise = float(np.max(abs(integrand - det_c - phi.schur_delta(*lam))))
    passed = grid_min >= -1e-12 and eq_worst < 1e-12 and worst_pointwise < 1e-9
    return CriterionResult("10 Schur inequality", passed,
                           {"grid_min": f"{grid_min:.2e}",
                            "equality_max": f"{eq_worst:.2e}",
                            "pointwise_max": f"{worst_pointwise:.2e}"})


def criterion_11_twist_expansion(seed: int, limit: int | None = None) -> CriterionResult:
    """twist_chern agrees with the curvature-shift oracle to 1e-10; eps=0 exact."""
    worst = 0.0
    worst_zero = 0.0
    for idx in range(_count(FULL_COUNTS["twist_instances"], limit)):
        rng = np.random.default_rng(_sub_seed(seed, 11, idx))
        tensor = forms.random_griffiths_curvature(3, 3, 2, 0.3,
                                                  _sub_seed(seed, 11, idx, 1))
        cs = forms.chern_forms(tensor)
        eps = float(rng.uniform(0.05, 0.4))
        scale_w = float(rng.uniform(0.5, 2.0))
        omega = scale_w * forms.standard_omega(3)
        twisted = forms.twist_chern(cs, eps, omega)
        # curvature-shift oracle: R -> R - eps (2pi/i) omega Id
        shifted = tensor.entries - eps * scale_w * trace_map(3).blocks
        oracle = forms.chern_forms(
            forms.CurvatureTensor(rank=3, dim=3, entries=shifted))
        untouched = forms.twist_chern(cs, 0.0, omega)
        worst = max(worst, *map(forms.max_coeff_diff, twisted, oracle))
        worst_zero = max(worst_zero, *map(forms.max_coeff_diff, untouched, cs))
    passed = worst < 1e-10 and worst_zero == 0.0
    return CriterionResult("11 twist expansion", passed,
                           {"max_coeff_diff": f"{worst:.2e}",
                            "eps0_diff": f"{worst_zero:.2e}"})


ALL_CRITERIA = (
    criterion_1_exact_fixed_point,
    criterion_2_method_agreement,
    criterion_3_scaling_covariance,
    criterion_4_rank_two_bound,
    criterion_5_rank_three_theorem,
    criterion_6_moment_identities,
    criterion_7_schur_identities,
    criterion_8_principal_minors,
    criterion_9_weak_positivity,
    criterion_10_schur_inequality,
    criterion_11_twist_expansion,
)

DEFAULT_SEED = 20240808


def run_all(seed: int = DEFAULT_SEED, limit: int | None = None) -> list[CriterionResult]:
    require_int(seed, "seed", 0)
    return [crit(seed, limit) for crit in ALL_CRITERIA]
