"""Every route to the double mixed discriminant, cross-checked."""

import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from oracles import loop_phi_direct, signed_perms, transpose_map

from schurpos import discriminants
from schurpos import phi as phi_module
from schurpos.discriminants import (leibniz_table, moment_exact, power_moment,
                                    principal_sum, sample_unit_sphere, stack_det)
from schurpos.hermitian import det
from schurpos.phi import (ROUTES, PhiReport, c_matrix, four_cycle_diagonal,
                          integral_sigma, phi_direct, phi_dual,
                          phi_integral_r2, phi_integral_r3, phi_r4_decomposition,
                          phi_reports, rank2_norm_identity, route_spread, schur_delta)
from schurpos.posmap import (BlockMap, choi_fixture, identity_map,
                             random_kraus_map, scale, sinkhorn_normalize,
                             trace_map)


def normalized_map(r, seed, terms=3, eps=0.2):
    h = random_kraus_map(r, terms, eps, seed)
    res = sinkhorn_normalize(h, tol=1e-11, max_iter=800, check_positive=False)
    assert res.converged
    return res.scaled


class TestPhiDirect:
    def test_trace_map(self):
        assert abs(phi_direct(trace_map(3)).value - 1.0) < 1e-13

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

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_trace_map_is_exactly_one(self, r):
        # the (r+1) r! determinants of integer words are Leibniz sums up to
        # rank 4, exact in floating point
        rep = phi_direct(trace_map(r))
        assert (rep.value, rep.imaginary_residue) == (1.0, 0.0)

    def test_rank_five_boundary(self):
        assert abs(phi_direct(trace_map(5)).value - 1.0) < 1e-13

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            phi_direct(trace_map(6))

    def test_beyond_float_range_is_rejected(self):
        # Phi = 1e450 overflows; with float errors silenced the report still refuses it
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="float range"):
            phi_direct(BlockMap(1e150 * trace_map(3).blocks))

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


class TestRoutes:
    @pytest.mark.parametrize("method,rank", [("direct", 5), ("dual", 4), ("integral", 2),
                                             ("integral", 3), ("r4", 4)])
    def test_named_route_matches_direct(self, method, rank):
        h = normalized_map(rank, seed=131 + rank)
        (rep,) = phi_reports(h, method)
        assert abs(rep.value - phi_direct(h).value) < 1e-9
        assert rank in ROUTES[method][1]

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_all_runs_a_route_exactly_where_it_applies(self, rank):
        h = trace_map(rank)
        try:
            ran = [rep.method for rep in phi_reports(h)]
        except ValueError:
            ran = []
        applies = []
        for name, (_, ranks) in ROUTES.items():
            try:
                (rep,) = phi_reports(h, name)
            except ValueError:
                assert rank not in ranks
            else:
                assert rank in ranks
                applies.append(rep.method)
        assert ran == applies

    def test_route_spread_is_largest_minus_smallest(self):
        # the largest distance from the direct report would read 0.25
        reports = [PhiReport(value=v, imaginary_residue=0.0, method=m)
                   for v, m in ((1.0, "direct"), (1.25, "dual"), (0.75, "integral_r3"))]
        assert route_spread(reports) == 0.5
        assert route_spread(reports[:1]) == 0.0

    def test_integral_outside_its_ranks(self):
        with pytest.raises(ValueError, match="needs rank 2 or 3"):
            phi_reports(trace_map(4), "integral")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            phi_reports(trace_map(3), "hyperdeterminant")


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

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match=r"xi has shape \(2,\), map has r=3"):
            c_matrix(trace_map(3), np.array([1.0, 0.0]))

    def test_stack_matches_per_vector(self):
        h = normalized_map(3, seed=107)
        xis = sample_unit_sphere(np.random.default_rng(109), (4, 5), 3)
        got = c_matrix(h, xis)
        assert got.shape == (4, 5, 3, 3)
        want = [[c_matrix(h, xi) for xi in row] for row in xis]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_stack_rejects_one_non_unit_row(self):
        xis = sample_unit_sphere(np.random.default_rng(113), 6, 3)
        xis[4] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="unit vector"):
            c_matrix(trace_map(3), xis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="unit vector"):
            c_matrix(trace_map(3), np.array([bad, 0.0, 0.0]))


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
        assert abs(four_cycle_diagonal(np.eye(4, dtype=complex)) - 24.0) < 1e-14

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
        for bad in (float("nan"), float("inf"), -float("inf")):
            for args in ((bad, 1.0, 1.0), (1.0, np.array([0.5, bad]), 1.0)):
                with pytest.raises(ValueError, match="finite nonnegative"):
                    schur_delta(*args)

    def test_scalar_calls_match_one_array_call(self):
        lam = np.random.default_rng(133).uniform(0.0, 3.0, size=(3, 50))
        lam[:, :5] = [[1.0] * 5, [1.0, 2.0, 0.0, 0.5, 3.0], [1.0, 0.0, 2.0, 0.0, 0.0]]
        batch = schur_delta(*lam)
        for k, triple in enumerate(lam.T):
            got = schur_delta(*triple)
            assert type(got) is float
            assert got == batch[k]

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

    def test_trace_threshold_is_relative(self):
        # a tiny map whose off-diagonal trace is 2e-10 against max|B| = 1e-10
        b = 1e-12 * trace_map(2).blocks
        b[0, 1] += 1e-10 * np.eye(2)
        b[1, 0] += 1e-10 * np.eye(2)
        with pytest.raises(ValueError, match="not normalized"):
            rank2_norm_identity(BlockMap(b))

    def test_accepts_scaled_normalized_map(self):
        h = BlockMap(1e8 * normalized_map(2, seed=137).blocks)
        total, _, _ = rank2_norm_identity(h)
        want = phi_direct(h).value
        assert abs(total - want) <= 1e-12 * abs(want)


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

    def test_input_scaled_by_a_diagonal(self):
        # blocks (0, j) and (j, 0) gain 1e3, block (0, 0) 1e6: a Leibniz term holds
        # blocks of scales 1e6 and 1, whose sum would swamp the smaller ones
        h = random_kraus_map(3, 3, 0.2, seed=144)
        want = 1e6 * loop_phi_direct(h)
        got = phi_direct(scale(h, np.eye(3), np.diag([1e3, 1.0, 1.0]))).value
        assert abs(got - want.real) <= 1e-10 * abs(want)

    def test_small_well_conditioned_scaling_accepted(self):
        # det(1e-4 I) = 1e-16 at r = 4: tiny, yet perfectly conditioned
        h = trace_map(4)
        c1, c2 = 1e-4 * np.eye(4), np.eye(4)
        factor = abs(det(c1)) ** 2 * abs(det(c2)) ** 2
        scaled = phi_direct(scale(h, c1, c2)).value
        assert abs(scaled - factor * phi_direct(h).value) <= 1e-12 * factor


# Reference loops: one kernel call per Leibniz term, as the routes were first
# written (loop_phi_direct is in oracles).  The stacked routes must reproduce
# them to roundoff.

def loop_integral_det_c(h):
    total = 0j
    for perm, sign in signed_perms(h.r):
        total += sign * moment_exact([h.blocks[i, perm[i]] for i in range(h.r)])
    return total


def loop_integral_sigma2_c(h):
    total = 0j
    for i in range(h.r):
        for j in range(i + 1, h.r):
            total += moment_exact([h.blocks[i, i], h.blocks[j, j]])
            total -= moment_exact([h.blocks[i, j], h.blocks[j, i]])
    return total


def loop_four_cycle_trace_sum(mats):
    """The six 4-cycles 0 -> a -> b -> c -> 0, each traced along the cycle."""
    return sum(np.trace(reduce(np.matmul, [mats[0], mats[a], mats[b], mats[c]]))
               for a, b, c in itertools.permutations((1, 2, 3)))


def loop_q_sum(h):
    total = 0j
    for perm, sign in signed_perms(4):
        total += sign * loop_four_cycle_trace_sum([h.blocks[i, perm[i]] for i in range(4)])
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
        # the words of leibniz_table(r, k): subsets S in combinations order,
        # within each the permutations of S_k in itertools order
        for k in range(1, h.r + 1):
            rows, cols, signs = leibniz_table(h.r, k)
            terms = [(s, perm, sign) for s in itertools.combinations(range(h.r), k)
                     for perm, sign in signed_perms(k)]
            assert len(signs) == len(terms)
            words = h.blocks[rows, cols]
            for t, (s, perm, sign) in enumerate(terms):
                assert rows[t].tolist() == list(s)
                assert cols[t].tolist() == [s[p] for p in perm]
                assert signs[t] == sign
                for m in range(k):
                    assert np.array_equal(words[t, m], h.blocks[s[m], s[perm[m]]])

    def test_phi_direct(self, h):
        want = loop_phi_direct(h)
        rep = phi_direct(h)
        assert_close(rep.value, want.real)
        assert abs(rep.imaginary_residue - abs(want.imag)) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("terms", [1, 7], ids=["one_term", "seven_terms"])
    def test_phi_direct_in_chunks(self, h, terms, monkeypatch):
        # test_phi_direct covers the default chunk size; a chunk of m terms
        # allocates m (2r + 1) r^2 16 bytes at k = r
        n, term_bytes = math.factorial(h.r), (2 * h.r + 1) * h.r ** 2 * 16
        monkeypatch.setattr(discriminants, "LEIBNIZ_CHUNK_BYTES", terms * term_bytes)
        chunks = []

        def counted(form):
            return lambda args: chunks.append(args.shape[-4]) or form(args)

        want = loop_phi_direct(h)
        with monkeypatch.context() as m:
            m.setattr(phi_module, "stack_det", counted(stack_det))
            rep = phi_direct(h)
        assert_close(rep.value, want.real)
        assert abs(rep.imaginary_residue - abs(want.imag)) <= 1e-12 * abs(want)
        want_chunks = [terms] * (n // terms) + [n % terms] * (n % terms > 0)
        assert chunks == want_chunks

        # six maps on leading axes (2, 3): the bound counts them, so the words
        # split at the same terms, and each map matches its one-map loop
        monkeypatch.setattr(discriminants, "LEIBNIZ_CHUNK_BYTES", 6 * terms * term_bytes)
        rng = np.random.default_rng(170 + h.r)
        re, im = rng.standard_normal((2, 2, 3) + h.blocks.shape)
        stack = h.blocks + 0.3 * np.abs(h.blocks).max() * (re + 1j * im)
        kernels = [(h.r, stack_det, loop_phi_direct),
                   (h.r, lambda x: power_moment(x, h.r), loop_integral_det_c),
                   (2, lambda x: power_moment(x, 2), loop_integral_sigma2_c)]
        if h.r == 4:
            kernels.append((4, four_cycle_diagonal, loop_q_sum))
        for k, form, loop in kernels:
            chunks.clear()
            got = principal_sum(stack, k, counted(form))
            assert got.shape == (2, 3)
            if k == h.r:
                assert chunks == want_chunks
            for a, b in np.ndindex(2, 3):
                assert_close(got[a, b], loop(BlockMap(stack[a, b])))

    def test_phi_direct_memory_stays_bounded_at_rank_5(self):
        # chunked it peaks at about 0.5 MB; one unchunked call of the two-layer
        # sum (120 terms of 6 arguments, 5 x 5) peaks at about 0.8 MB, also
        # under this bound, so the chunk bound itself is checked on
        # chern_forms at rank = dim = 5 in test_forms.py
        h = ROUTE_MAPS["raw_r5"]
        phi_direct(h)
        tracemalloc.start()
        try:
            phi_direct(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("r", range(2, 6))
    def test_pair_table_is_read_only(self, r):
        # the sigma_2 pair words are leibniz_table(r, 2); every table is
        # cached, and its arrays are read-only
        for k in range(1, r + 1):
            table = leibniz_table(r, k)
            assert leibniz_table(r, k) is table
            rows, cols, signs = table
            n = math.comb(r, k) * math.factorial(k)
            assert rows.shape == cols.shape == (n, k) and signs.shape == (n,)
            for a in table:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0

    def test_integral_det_c(self, h):
        assert_close(integral_sigma(h, h.r), loop_integral_det_c(h))

    def test_integral_sigma2_c(self, h):
        assert_close(integral_sigma(h, 2), loop_integral_sigma2_c(h))

    @pytest.mark.parametrize("name", ["raw_r4", "normalized_r4"])
    def test_q_sum(self, name):
        h = ROUTE_MAPS[name]
        assert_close(principal_sum(h.blocks, 4, four_cycle_diagonal), loop_q_sum(h))
        # the diagonal of the 4-cycle sum, on matrices with no structure
        rng = np.random.default_rng(180)
        for x in rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4)):
            assert_close(four_cycle_diagonal(x), loop_four_cycle_trace_sum([x] * 4))

    def test_r4_q_part(self):
        h = ROUTE_MAPS["normalized_r4"]
        assert_close(phi_r4_decomposition(h).q_part, -loop_q_sum(h).real / 12.0)
