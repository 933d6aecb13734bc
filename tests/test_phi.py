"""Every route to the double mixed discriminant, cross-checked."""

import itertools
from functools import reduce

import numpy as np
import pytest

from schurpos.discriminants import (mixed_discriminant, moment_exact,
                                    permutation_table, signed_permutations)
from schurpos.hermitian import det
from schurpos.phi import (c_matrix, four_cycle_trace_sum, integral_det_c,
                          integral_sigma2_c, leibniz_stack, phi_direct,
                          phi_dual, phi_integral_r2, phi_integral_r3,
                          phi_r4_decomposition, rank2_norm_identity,
                          schur_delta)
from schurpos.posmap import (BlockMap, choi_fixture, identity_map,
                             random_kraus_map, scale, sinkhorn_normalize,
                             trace_map, transpose_map)


def normalized_map(r, seed, terms=3, eps=0.2):
    h = random_kraus_map(r, terms, eps, seed)
    res = sinkhorn_normalize(h, tol=1e-11, max_iter=800, check_positive=False)
    assert res.converged
    return res.scaled


class TestPhiDirect:
    def test_trace_map(self):
        assert phi_direct(trace_map(3)).value == 1.0

    def test_identity_map(self):
        rep = phi_direct(identity_map(3))
        assert abs(rep.value - 1.0) < 1e-14

    def test_transpose_map(self):
        rep = phi_direct(transpose_map(3))
        assert abs(rep.value - 1.0) < 1e-14

    def test_choi_fixture_exact_values(self):
        # raw fixture: 1/2; doubly stochastic rescale by 3/2 multiplies by (3/2)^3
        assert abs(phi_direct(choi_fixture()).value - 0.5) < 1e-13
        scaled = BlockMap(1.5 * choi_fixture().blocks)
        assert abs(phi_direct(scaled).value - 27.0 / 16.0) < 1e-12

    def test_positive_on_random_normalized(self):
        rep = phi_direct(normalized_map(3, seed=80))
        assert rep.value > 0.0
        assert rep.imaginary_residue < 1e-9

    def test_rank_five_boundary(self):
        assert phi_direct(trace_map(5)).value == 1.0

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            phi_direct(trace_map(6))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            phi_direct(trace_map(2, 3))


class TestPhiDual:
    def test_trace_map(self):
        assert abs(phi_dual(trace_map(3)).value - 1.0) < 1e-13

    def test_matches_direct_r2(self):
        h = random_kraus_map(2, 3, 0.1, seed=83)
        assert abs(phi_dual(h).value - phi_direct(h).value) < 1e-10

    def test_matches_direct_r3_normalized(self):
        h = normalized_map(3, seed=89)
        assert abs(phi_dual(h).value - phi_direct(h).value) < 1e-9

    def test_matches_direct_r4_normalized(self):
        h = normalized_map(4, seed=91)
        assert abs(phi_dual(h).value - phi_direct(h).value) < 1e-9


class TestCMatrix:
    def test_trace_map_gives_identity(self):
        rng = np.random.default_rng(97)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = z / np.linalg.norm(z)
        assert np.max(np.abs(c_matrix(trace_map(3), xi) - np.eye(3))) < 1e-12

    def test_identity_map_at_basis_vector(self):
        c = c_matrix(identity_map(3), np.array([1.0, 0.0, 0.0]))
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.max(np.abs(c - want)) < 1e-14

    def test_trace_normalization_on_normalized_map(self):
        h = normalized_map(3, seed=101)
        rng = np.random.default_rng(103)
        for _ in range(50):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            xi = z / np.linalg.norm(z)
            assert abs(np.trace(c_matrix(h, xi)).real - 3.0) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            c_matrix(trace_map(3), np.array([1.0, 1.0, 0.0]))


class TestIntegralR2:
    def test_trace_map(self):
        rep = phi_integral_r2(trace_map(2))
        assert abs(rep.value - 1.0) < 1e-14

    def test_matches_direct(self):
        h = normalized_map(2, seed=107)
        assert abs(phi_integral_r2(h).value - phi_direct(h).value) < 1e-10

    def test_lower_bound_one(self):
        for seed in range(108, 114):
            rep = phi_integral_r2(normalized_map(2, seed=seed))
            assert rep.value >= 1.0 - 1e-9

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            phi_integral_r2(random_kraus_map(2, 2, 0.2, seed=109))


class TestIntegralR3:
    def test_trace_map(self):
        rep = phi_integral_r3(trace_map(3))
        assert abs(rep.value - 1.0) < 1e-13
        assert abs(rep.lower_bound - 1.0) < 1e-13

    def test_matches_direct(self):
        h = normalized_map(3, seed=113)
        assert abs(phi_integral_r3(h).value - phi_direct(h).value) < 1e-9

    def test_value_dominates_positive_lower_bound(self):
        for seed in range(115, 121):
            rep = phi_integral_r3(normalized_map(3, seed=seed))
            assert rep.value >= rep.lower_bound - 1e-10
            assert rep.lower_bound > 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            phi_integral_r3(random_kraus_map(3, 2, 0.2, seed=117))


class TestR4Decomposition:
    def test_trace_map_split(self):
        decomp = phi_r4_decomposition(trace_map(4))
        assert abs(decomp.integral_part - 3.0) < 1e-12
        assert abs(decomp.q_part + 2.0) < 1e-12
        assert abs(decomp.total - 1.0) < 1e-12

    def test_trace_map_q_term_by_hand(self):
        # only sigma = id contributes; Q(I,I,I,I) = 6 tr(I) = 24, so -24/12 = -2
        eye4 = [np.eye(4, dtype=complex)] * 4
        assert abs(four_cycle_trace_sum(eye4) - 24.0) < 1e-14

    def test_matches_direct(self):
        h = normalized_map(4, seed=127)
        decomp = phi_r4_decomposition(h)
        assert abs(decomp.total - phi_direct(h).value) < 1e-8


class TestSchurDelta:
    def test_equality_families(self):
        assert schur_delta(1.0, 1.0, 1.0) == 0.0
        assert schur_delta(2.0, 2.0, 0.0) == 0.0

    def test_worked_value(self):
        assert abs(schur_delta(3.0, 1.0, 0.0) - 16.0) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            schur_delta(1.0, -0.1, 0.0)

    def test_factored_form(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            a, b, c = rng.uniform(0.0, 3.0, size=3)
            fact = (a * (a - b) * (a - c) + b * (b - c) * (b - a)
                    + c * (c - a) * (c - b))
            assert abs(schur_delta(a, b, c) - fact) < 1e-12
            assert schur_delta(a, b, c) >= -1e-12


class TestRankTwoIdentity:
    def test_trace_map(self):
        assert rank2_norm_identity(trace_map(2)) == (1.0, 1.0, 0.0)

    def test_splits_phi(self):
        h = normalized_map(2, seed=137)
        total, d_term, norm_term = rank2_norm_identity(h)
        assert norm_term >= 0.0
        assert abs(total - phi_direct(h).value) < 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            rank2_norm_identity(random_kraus_map(2, 2, 0.2, seed=139))


class TestScalingCovariance:
    @pytest.mark.parametrize("r", [2, 3])
    def test_covariance(self, r):
        rng = np.random.default_rng(140 + r)
        h = random_kraus_map(r, 3, 0.2, seed=141 + r)
        base = phi_direct(h).value
        for _ in range(5):
            c1 = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            c2 = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            factor = abs(det(c1)) ** 2 * abs(det(c2)) ** 2
            scaled = phi_direct(scale(h, c1, c2)).value
            assert abs(scaled - factor * base) / abs(factor * base) < 1e-8

    def test_small_well_conditioned_scaling_accepted(self):
        # det(1e-4 I) = 1e-16 at r = 4: tiny, yet perfectly conditioned
        h = trace_map(4)
        c1, c2 = 1e-4 * np.eye(4), np.eye(4)
        factor = abs(det(c1)) ** 2 * abs(det(c2)) ** 2
        scaled = phi_direct(scale(h, c1, c2)).value
        assert abs(scaled - factor * phi_direct(h).value) <= 1e-12 * factor


# Reference loops: one kernel call per Leibniz term, as the routes were first
# written.  The stacked routes must reproduce them to roundoff.

def loop_phi_direct(h):
    total = 0j
    for perm, sign in signed_permutations(h.r):
        total += sign * mixed_discriminant([h.block(i, perm[i]) for i in range(h.r)])
    return total


def loop_integral_det_c(h):
    total = 0j
    for perm, sign in signed_permutations(h.r):
        total += sign * moment_exact([h.block(i, perm[i]) for i in range(h.r)])
    return total


def loop_integral_sigma2_c(h):
    total = 0j
    for i in range(h.r):
        for j in range(i + 1, h.r):
            total += moment_exact([h.block(i, i), h.block(j, j)])
            total -= moment_exact([h.block(i, j), h.block(j, i)])
    return total


def loop_four_cycle_trace_sum(mats):
    """The six 4-cycles 0 -> a -> b -> c -> 0, each traced along the cycle."""
    return sum(np.trace(reduce(np.matmul, [mats[0], mats[a], mats[b], mats[c]]))
               for a, b, c in itertools.permutations((1, 2, 3)))


def loop_q_sum(h):
    total = 0j
    for perm, sign in signed_permutations(4):
        total += sign * loop_four_cycle_trace_sum([h.block(i, perm[i]) for i in range(4)])
    return total


def assert_close(got, want, rtol=1e-12):
    assert abs(got - want) <= rtol * abs(want), (got, want)


ROUTE_MAPS = {"choi": choi_fixture()}
for _r in range(2, 6):
    ROUTE_MAPS[f"raw_r{_r}"] = random_kraus_map(_r, 3, 0.2, seed=150 + _r)
    ROUTE_MAPS[f"normalized_r{_r}"] = normalized_map(_r, seed=160 + _r)


class TestStackedRoutesMatchLoops:
    @pytest.fixture(params=sorted(ROUTE_MAPS))
    def h(self, request):
        return ROUTE_MAPS[request.param]

    def test_leibniz_stack_terms(self, h):
        perms, _ = permutation_table(h.r)
        for word, perm in zip(leibniz_stack(h), perms):
            for i in range(h.r):
                assert np.array_equal(word[i], h.block(i, perm[i]))

    def test_phi_direct(self, h):
        want = loop_phi_direct(h)
        rep = phi_direct(h)
        assert_close(rep.value, want.real)
        assert abs(rep.imaginary_residue - abs(want.imag)) <= 1e-12 * abs(want)

    def test_integral_det_c(self, h):
        assert_close(integral_det_c(h), loop_integral_det_c(h))

    def test_integral_sigma2_c(self, h):
        assert_close(integral_sigma2_c(h), loop_integral_sigma2_c(h))

    @pytest.mark.parametrize("name", ["raw_r4", "normalized_r4"])
    def test_q_sum(self, name):
        h = ROUTE_MAPS[name]
        stack = leibniz_stack(h)
        for word in stack:
            assert_close(four_cycle_trace_sum(word), loop_four_cycle_trace_sum(word))
        _, signs = permutation_table(4)
        assert_close(signs @ four_cycle_trace_sum(stack), loop_q_sum(h))

    def test_r4_q_part(self):
        h = ROUTE_MAPS["normalized_r4"]
        assert_close(phi_r4_decomposition(h).q_part, -loop_q_sum(h).real / 12.0)
