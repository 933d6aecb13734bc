"""Exterior algebra engine: wedge signs, Chern/Schur forms, positivity."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import conjugate, is_real_pp, loop_phi_direct, restrict_fiber

from schurpos.discriminants import sample_unit_sphere
from schurpos.forms import (CurvatureTensor, Form, _pairing_matrix, _plucker,
                            c3_principal_minors,
                            chern_forms, max_coeff_diff, merge_tensor,
                            random_griffiths_curvature, schur_form,
                            standard_omega, twist_chern,
                            validate_partition, volume_coefficient,
                            weak_positivity_is_exact, weak_positivity_min,
                            wedge)
from schurpos.phi import phi_direct
from schurpos.posmap import BlockMap, positivity_certificate

TWO_PI = 2.0 * math.pi


def subsets(n, p):
    return list(itertools.combinations(range(n), p))


def form_from_terms(n, terms):
    """A Form from {(I, J): coefficient}; every key has the same bidegree."""
    (p, q), = {(len(i), len(j)) for i, j in terms}
    rows, cols = subsets(n, p), subsets(n, q)
    coeffs = np.zeros((len(rows), len(cols)), dtype=complex)
    for (i, j), v in terms.items():
        coeffs[rows.index(i), cols.index(j)] += v
    return Form(n, p, q, coeffs)


def coeff(u, i, j):
    """The coefficient of dz^I ^ dzbar^J in u."""
    return u.coeffs[subsets(u.n, u.p).index(i), subsets(u.n, u.q).index(j)]


def covector(w):
    """The (1,0)-form sum_a w[a] dz^a."""
    return Form(len(w), 1, 0, np.asarray(w)[:, None])


def curvature_form_matrix(t):
    """The rank x rank matrix of (1,1)-forms Theta[i][j] = sum R[i,j,a,b] dz^a ^ dzbar^b."""
    return [[Form(t.dim, 1, 1, block) for block in row] for row in t.entries]


def random_11_form(rng, n):
    """Random real (1,1)-form: Hermitian coefficient matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Form(n, 1, 1, (a + a.conj().T) / 2)


def brute_force_wedge_term(key1, key2):
    """Independent Koszul-sign oracle: bubble-sort the concatenated symbol word.

    Symbols are (0, a) for dz^a and (1, b) for dzbar^b; canonical order is all
    dz ascending then all dzbar ascending.  Every adjacent swap of two odd
    symbols flips the sign; duplicates kill the term.
    """
    word = ([(0, a) for a in key1[0]] + [(1, b) for b in key1[1]]
            + [(0, a) for a in key2[0]] + [(1, b) for b in key2[1]])
    if len(set(word)) != len(word):
        return None, 0
    sign = 1
    w = list(word)
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] > w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                sign = -sign
    holo = tuple(a for t, a in w if t == 0)
    anti = tuple(b for t, b in w if t == 1)
    return (holo, anti), sign


class TestWedge:
    def test_unit(self):
        rng = np.random.default_rng(1)
        u = random_11_form(rng, 3)
        assert max_coeff_diff(wedge(u, Form.one(3)), u) == 0.0

    def test_standard_volume_orientation(self):
        u1 = form_from_terms(2, {((0,), (0,)): 1j})
        u2 = form_from_terms(2, {((1,), (1,)): 1j})
        tau = volume_coefficient(wedge(u1, u2))
        assert abs(tau - 1.0) < 1e-15

    def test_pp_forms_commute(self):
        # signs agree exactly (see the bubble-sort oracle below); multi-term
        # accumulation order leaves only last-ulp noise
        rng = np.random.default_rng(2)
        u, v = random_11_form(rng, 3), random_11_form(rng, 3)
        uv, vu = wedge(u, v), wedge(v, u)
        assert max_coeff_diff(uv, vu) < 1e-14 * (1.0 + uv.max_abs())

    def test_against_bubble_sort_oracle(self):
        rng = np.random.default_rng(3)
        n = 4
        keys = []
        for p, q in ((1, 0), (0, 1), (1, 1), (2, 1)):
            for i in itertools.combinations(range(n), p):
                for j in itertools.combinations(range(n), q):
                    keys.append((i, j))
        for _ in range(300):
            k1 = keys[rng.integers(len(keys))]
            k2 = keys[rng.integers(len(keys))]
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            got = wedge(form_from_terms(n, {k1: a}), form_from_terms(n, {k2: b}))
            key, sign = brute_force_wedge_term(k1, k2)
            if key is None:
                assert got.max_abs() == 0.0
            else:
                assert abs(coeff(got, *key) - sign * a * b) < 1e-15

    def test_associativity(self):
        rng = np.random.default_rng(4)
        u, v, w = (random_11_form(rng, 3) for _ in range(3))
        lhs = wedge(wedge(u, v), w)
        rhs = wedge(u, wedge(v, w))
        assert max_coeff_diff(lhs, rhs) < 1e-13

    def test_odd_forms_anticommute(self):
        b1 = form_from_terms(3, {((0,), ()): 1.0 + 0j})
        b2 = form_from_terms(3, {((1,), ()): 1.0 + 0j})
        assert max_coeff_diff(wedge(b1, b2), (-1.0) * wedge(b2, b1)) == 0.0

    def test_degree_overflow(self):
        # a product beyond top degree is the zero form, not an error
        rng = np.random.default_rng(5)
        top = form_from_terms(2, {((0, 1), (0, 1)): 1.0 + 0j})
        assert wedge(top, form_from_terms(2, {((0,), ()): 1.0 + 0j})).coeffs.size == 0
        u = random_11_form(rng, 2)
        assert wedge(wedge(u, u), u).coeffs.size == 0

    def test_conjugate(self):
        u = form_from_terms(2, {((0,), (1,)): 2.0 + 3.0j})
        c = conjugate(u)
        assert coeff(c, (1,), (0,)) == pytest.approx(-(2.0 - 3.0j))


def random_coeffs(rng, *shape):
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_of_stacks_matches_wedge_per_form(n):
    # every pair of bidegrees, so also the empty products beyond top degree;
    # the second operand is a stack and, broadcast, a single form
    rng = np.random.default_rng(90 + n)
    degrees = list(itertools.product(range(n + 1), repeat=2))
    for (p, q), (s, t) in itertools.product(degrees, repeat=2):
        a = random_coeffs(rng, 4, math.comb(n, p), math.comb(n, q))
        b = random_coeffs(rng, 4, math.comb(n, s), math.comb(n, t))
        for other in (b, b[0]):
            got = wedge(Form(n, p, q, a), Form(n, s, t, other))
            want = np.stack([wedge(Form(n, p, q, x), Form(n, s, t, y)).coeffs
                             for x, y in zip(a, np.broadcast_to(other, b.shape))])
            assert (got.n, got.p, got.q) == (n, p + s, q + t)
            assert got.coeffs.shape == want.shape
            assert np.array_equal(got.coeffs, want)
            if p + s > n or q + t > n:
                assert got.coeffs.size == 0


class TestChernForms:
    def test_zero_curvature(self):
        t = CurvatureTensor(rank=3, dim=3, entries=np.zeros((3, 3, 3, 3)))
        cs = chern_forms(t)
        assert volume_coefficient(wedge(cs[0], Form.one(3))) == 0.0  # no top part
        assert (cs[0].p, cs[0].q) == (0, 0) and cs[0].coeffs.tolist() == [[1.0 + 0j]]
        for k in (1, 2, 3):
            assert cs[k].max_abs() == 0.0

    def test_rank_one(self):
        lam = 2.5
        entries = np.zeros((1, 1, 2, 2), dtype=complex)
        entries[0, 0, 0, 0] = lam
        cs = chern_forms(CurvatureTensor(rank=1, dim=2, entries=entries))
        want = form_from_terms(2, {((0,), (0,)): (1j / TWO_PI) * lam})
        assert max_coeff_diff(cs[1], want) < 1e-16

    def test_c1_is_trace(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=5)
        cs = chern_forms(t)
        tr = np.zeros((3, 3), dtype=complex)
        for a in range(3):
            for b in range(3):
                v = sum(t.entries[i, i, a, b] for i in range(3))
                tr[a, b] = (1j / TWO_PI) * v
        assert max_coeff_diff(cs[1], Form(3, 1, 1, tr)) < 1e-14

    @pytest.mark.parametrize("rank,dim", [(3, 3), (4, 3), (5, 3), (3, 4)])
    def test_c1_is_one_diagonal_sum(self, rank, dim):
        t = random_griffiths_curvature(rank, dim, rank, 0.2, seed=8)
        want = (1j / TWO_PI) * sum(t.entries[i, i] for i in range(rank))
        got = chern_forms(t)[1].coeffs
        assert (abs(got - want) <= 1e-15 * abs(want)).all()

    def test_c2_newton_identity(self):
        # c2 = (c1^2 - (i/2pi)^2 tr(R ^ R)) / 2
        t = random_griffiths_curvature(3, 3, 2, 0.3, seed=6)
        cs = chern_forms(t)
        theta = curvature_form_matrix(t)
        p2 = Form.zero(3, 2, 2)
        for i in range(3):
            for j in range(3):
                p2 = p2 + wedge(theta[i][j], theta[j][i])
        want = 0.5 * (wedge(cs[1], cs[1]) - (1j / TWO_PI) ** 2 * p2)
        assert max_coeff_diff(cs[2], want) < 1e-11

    def test_reality(self):
        t = random_griffiths_curvature(4, 3, 3, 0.2, seed=7)
        for k, c in enumerate(chern_forms(t)):
            assert is_real_pp(c, tol=1e-13 * (1.0 + c.max_abs())), f"c_{k} not real"

    def test_memory_stays_bounded_at_rank_and_dim_5(self):
        # chunked by LEIBNIZ_CHUNK_BYTES it peaks at about 1.5 MB; the k = 5
        # degree in one unchunked call peaks at about 36 MB
        t = random_griffiths_curvature(5, 5, 5, 0.2, seed=3)
        chern_forms(t)
        tracemalloc.start()
        try:
            chern_forms(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22, peak

    def test_desk_scale_cap(self):
        t = CurvatureTensor(rank=6, dim=2, entries=np.zeros((6, 6, 2, 2)))
        with pytest.raises(ValueError):
            chern_forms(t)


def signed_sum(terms):
    """sum of sign * form over (sign, form) pairs whose form is not None, or
    None (a structural zero) when there is none."""
    acc = None
    for sign, term in terms:
        if term is not None:
            acc = sign * term if acc is None else acc + sign * term
    return acc


def laplace_det_forms(entries):
    """Oracle: first-row Laplace expansion memoized on (row, remaining columns);
    None entries are structural zeros."""
    r = len(entries)
    n = next((f.n for row in entries for f in row if f is not None), None)

    @functools.cache
    def minor(row, cols):
        if row == r:
            return Form.one(n)
        terms = []
        for pos, j in enumerate(sorted(cols)):
            if entries[row][j] is not None and (rest := minor(row + 1, cols - {j})) is not None:
                terms.append(((-1) ** pos, wedge(entries[row][j], rest)))
        return signed_sum(terms)

    return minor(0, frozenset(range(r)))


def laplace_chern_forms(t):
    """Oracle: det(Id + (i/2pi) Theta) by first-row Laplace expansion, one
    degree at a time.  The degree-k part of a minor is, over its first-row
    entries, the identity part times the degree-k part of the complementary
    minor plus the (i/2pi) Theta part wedged with its degree-(k-1) part."""
    n, r = t.dim, t.rank
    theta = curvature_form_matrix(t)

    @functools.cache
    def minor(row, cols, k):
        if row == r:
            return Form.one(n) if k == 0 else None
        terms = []
        for pos, j in enumerate(sorted(cols)):
            if j == row:
                terms.append(((-1) ** pos, minor(row + 1, cols - {j}, k)))
            rest = minor(row + 1, cols - {j}, k - 1) if k > 0 else None
            if rest is not None:
                terms.append(((-1) ** pos, wedge((1j / TWO_PI) * theta[row][j], rest)))
        return signed_sum(terms)

    return [minor(0, frozenset(range(r)), k) for k in range(r + 1)]


def assert_forms_close(got, want, scale=None, rtol=1e-13):
    scale = want.max_abs() if scale is None else scale
    assert max_coeff_diff(got, want) <= rtol * scale


def largest_leibniz_term(entries):
    """Largest product of entry magnitudes along a permutation: the size of
    the terms whose cancellation a determinant of forms may suffer."""
    return max(math.prod(0.0 if row[j] is None else row[j].max_abs()
                         for row, j in zip(entries, perm))
               for perm in itertools.permutations(range(len(entries))))


def jacobi_trudi(cs, lam):
    rank = len(cs) - 1
    return [[cs[k] if 0 <= (k := lam[i] - i + j) <= rank else None
             for j in range(rank)] for i in range(rank)]


class TestChernMatchesFormAlgebra:
    """The mixed-discriminant Chern route and the Chern-monomial Schur forms
    against the Laplace expansion over the form algebra."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_every_rank_and_dim(self, rank):
        for dim in range(1, 6):
            for seed in (0, 1):
                t = random_griffiths_curvature(rank, dim, rank, 0.2, seed=seed)
                cs, want = chern_forms(t), laplace_chern_forms(t)
                assert len(cs) == rank + 1
                for k in range(rank + 1):
                    assert_forms_close(cs[k], want[k])
                    if k > dim:
                        assert cs[k].coeffs.size == 0

    def test_zero_tensor_gives_pure_zero_forms(self):
        t = CurvatureTensor(rank=4, dim=3, entries=np.zeros((4, 4, 3, 3)))
        cs = chern_forms(t)
        for k in (1, 2, 3):
            assert (cs[k].p, cs[k].q) == (k, k) and cs[k].max_abs() == 0.0
        assert cs[4].coeffs.size == 0

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_jacobi_trudi_determinants(self, rank):
        cs = chern_forms(random_griffiths_curvature(rank, rank, 2, 0.2, seed=rank))
        parts = [p for p in itertools.product(range(rank + 1), repeat=rank)
                 if list(p) == sorted(p, reverse=True) and sum(p) <= rank]
        for lam in parts:
            entries = jacobi_trudi(cs, lam)
            assert_forms_close(schur_form(cs, lam), laplace_det_forms(entries),
                               largest_leibniz_term(entries))
        # the zero partition is the empty monomial: the unit form itself
        assert max_coeff_diff(schur_form(cs, (0,) * rank), Form.one(rank)) == 0.0


class TestSchurForm:
    def test_single_row_partitions(self):
        t = random_griffiths_curvature(3, 3, 2, 0.25, seed=8)
        cs = chern_forms(t)
        assert max_coeff_diff(schur_form(cs, (1, 0, 0)), cs[1]) < 1e-14
        assert max_coeff_diff(schur_form(cs, (2, 0, 0)), cs[2]) < 1e-13
        assert max_coeff_diff(schur_form(cs, (3, 0, 0)), cs[3]) < 1e-13

    def test_weight_three_expansions(self):
        t = random_griffiths_curvature(3, 3, 2, 0.25, seed=9)
        cs = chern_forms(t)
        c1, c2, c3 = cs[1], cs[2], cs[3]
        p111 = wedge(wedge(c1, c1), c1) - 2.0 * wedge(c1, c2) + c3
        p210 = wedge(c1, c2) - c3
        assert max_coeff_diff(schur_form(cs, (1, 1, 1)), p111) < 1e-12
        assert max_coeff_diff(schur_form(cs, (2, 1, 0)), p210) < 1e-12

    def test_segre_inversion_oracle(self):
        # invert the total Chern series: (1+c1+c2+c3)(1+s1+s2+s3) = 1, then
        # P_(1^k) = (-1)^k s_k
        t = random_griffiths_curvature(3, 3, 2, 0.25, seed=10)
        cs = chern_forms(t)
        c1, c2, c3 = cs[1], cs[2], cs[3]
        s1 = -1.0 * c1
        s2 = wedge(c1, c1) - c2
        s3 = -1.0 * wedge(wedge(c1, c1), c1) + 2.0 * wedge(c1, c2) - c3
        assert max_coeff_diff(schur_form(cs, (1,)), -1.0 * s1) < 1e-13
        assert max_coeff_diff(schur_form(cs, (1, 1)), s2) < 1e-12
        assert max_coeff_diff(schur_form(cs, (1, 1, 1)), -1.0 * s3) < 1e-12

    def test_partition_validation(self):
        t = random_griffiths_curvature(3, 3, 1, 0.25, seed=11)
        cs = chern_forms(t)
        with pytest.raises(ValueError):
            schur_form(cs, (1, 2))  # not weakly decreasing
        with pytest.raises(ValueError):
            schur_form(cs, (4, 0, 0))  # part exceeds rank
        with pytest.raises(ValueError):
            schur_form(cs, (2, 2, 0))  # weight exceeds dimension
        with pytest.raises(ValueError):
            schur_form(cs, (-1,))
        with pytest.raises(ValueError, match="more than 3 nonzero parts"):
            schur_form(cs, (1, 1, 1, 1))
        # a part that is not an integer is rejected, never truncated
        for parts in ((1.5, 0, 0), (2.9,), (1.0,), (True,), (1, False), ("2",)):
            with pytest.raises(ValueError, match="partition part must be an integer"):
                schur_form(cs, parts)


class TestC3PrincipalMinors:
    def test_rank_three_single_minor(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=12)
        assert max_coeff_diff(c3_principal_minors(t), chern_forms(t)[3]) < 1e-12

    def test_rank_four(self):
        t = random_griffiths_curvature(4, 3, 2, 0.2, seed=13)
        assert max_coeff_diff(c3_principal_minors(t), chern_forms(t)[3]) < 1e-11

    def test_zero(self):
        t = CurvatureTensor(rank=4, dim=3, entries=np.zeros((4, 4, 3, 3)))
        assert c3_principal_minors(t).max_abs() == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_below_degree_three_is_zero(self, dim):
        for rank in (3, 4, 5):
            t = random_griffiths_curvature(rank, dim, 2, 0.3, seed=rank)
            minors = c3_principal_minors(t)
            assert minors.coeffs.size == 0
            assert max_coeff_diff(minors, chern_forms(t)[3]) == 0.0

    @pytest.mark.parametrize("rank,dim", [(5, 3), (3, 4), (5, 4)])
    def test_benchmark_shapes(self, rank, dim):
        # chern_forms and the Laplace expansion of every principal minor
        for seed in (0, 1):
            t = random_griffiths_curvature(rank, dim, rank, 0.2, seed=seed)
            theta = curvature_form_matrix(t)
            minors = [laplace_det_forms([[theta[i][j] for j in sub] for i in sub])
                      for sub in itertools.combinations(range(rank), 3)]
            want = (1j / TWO_PI) ** 3 * functools.reduce(Form.__add__, minors)
            got = c3_principal_minors(t)
            assert_forms_close(got, want)
            assert_forms_close(got, chern_forms(t)[3], want.max_abs())

    def test_sum_over_restrictions(self):
        t = random_griffiths_curvature(4, 3, 2, 0.2, seed=14)
        total = Form.zero(3, 3, 3)
        for sub in itertools.combinations(range(4), 3):
            total = total + c3_principal_minors(restrict_fiber(t, sub))
        assert max_coeff_diff(total, c3_principal_minors(t)) < 1e-12

    def test_rank_too_small(self):
        t = CurvatureTensor(rank=2, dim=3, entries=np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError):
            c3_principal_minors(t)


class TestRestrictFiber:
    def test_full_subset_identity(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=15)
        r = restrict_fiber(t, (0, 1, 2))
        assert np.array_equal(r.entries, t.entries)

    def test_restriction_stays_positive(self):
        t = random_griffiths_curvature(4, 3, 3, eps=0.3, seed=16)
        sub = restrict_fiber(t, (0, 2, 3))
        min_eig, _ = positivity_certificate(sub, grid=200, seed=4)
        assert min_eig >= 0.3 - 1e-10

    def test_invalid_subset(self):
        t = random_griffiths_curvature(3, 3, 1, 0.2, seed=17)
        with pytest.raises(ValueError):
            restrict_fiber(t, (0, 0))
        with pytest.raises(ValueError):
            restrict_fiber(t, (0, 5))


class TestTwist:
    def test_eps_zero_identity(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=18)
        cs = chern_forms(t)
        out = twist_chern(cs, 0.0, standard_omega(3))
        for k in range(4):
            assert max_coeff_diff(out[k], cs[k]) == 0.0

    def test_c3_component_formula(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=19)
        cs = chern_forms(t)
        eps = 0.3
        w = standard_omega(3)
        w2 = wedge(w, w)
        want = (cs[3] - eps * wedge(w, cs[2]) + eps ** 2 * wedge(w2, cs[1])
                - eps ** 3 * wedge(w2, w))
        got = twist_chern(cs, eps, w)[3]
        assert max_coeff_diff(got, want) < 1e-15

    def test_matches_curvature_shift(self):
        # criterion 11's oracle: R -> R - eps (2pi/i) omega Id, at ranks 1-5
        # and dims 1-4 (at dim < rank the products beyond top degree vanish)
        eps = 0.17
        for rank in range(1, 6):
            for dim in range(1, 5):
                t = random_griffiths_curvature(rank, dim, 2, 0.2, seed=20)
                shifted = t.entries - eps * np.einsum("ij,ab->ijab", np.eye(rank), np.eye(dim))
                oracle = chern_forms(CurvatureTensor(rank=rank, dim=dim, entries=shifted))
                got = twist_chern(chern_forms(t), eps, standard_omega(dim))
                assert len(got) == rank + 1
                for k in range(rank + 1):
                    assert max_coeff_diff(got[k], oracle[k]) < 1e-10

    @pytest.mark.parametrize("eps", [1e110, 1e200, math.inf, math.nan])
    def test_twist_beyond_the_float_range_is_a_value_error(self, eps):
        # t = -eps omega is finite at 1e110 and 1e200, and t^3 or t^2 is not;
        # the weights are integers, so only the result's check can refuse it
        cs = chern_forms(random_griffiths_curvature(3, 3, 2, 0.2, seed=21))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            twist_chern(cs, eps, standard_omega(3))


class TestWeakPositivity:
    def test_strongly_positive_form(self):
        u = form_from_terms(2, {((0,), (0,)): 1j, ((1,), (1,)): 1j})
        val, witness = weak_positivity_min(u, samples=2000, seed=0)
        assert val > 0.0
        assert len(witness) == 1

    def test_indefinite_form_witness(self):
        u = form_from_terms(2, {((0,), (0,)): 1j, ((1,), (1,)): -1j})
        val, witness = weak_positivity_min(u, samples=2000, seed=0)
        assert val < 0.0
        # the documented witness: beta = dz^1 gives tau = -1
        beta = form_from_terms(2, {((0,), ()): 1.0 + 0j})
        prod = wedge(u, 1j * wedge(beta, conjugate(beta)))
        assert abs(volume_coefficient(prod) - (-1.0)) < 1e-15

    def test_sum_of_decomposables_is_positive(self):
        rng = np.random.default_rng(21)
        n, p = 3, 2
        u = Form.zero(n, p, p)
        for _ in range(4):
            cov = [covector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                   for _ in range(p)]
            alpha = wedge(cov[0], cov[1])
            u = u + (1j) ** (p * p) * wedge(alpha, conjugate(alpha))
        val, _ = weak_positivity_min(u, samples=4000, seed=1)
        assert val > 0.0

    def test_top_form_q_zero(self):
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=22)
        c3 = chern_forms(t)[3]
        val, witness = weak_positivity_min(c3, samples=10, seed=2)
        assert witness == []
        assert abs(val - volume_coefficient(c3).real) < 1e-16

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ck_volume_equals_phi_constant(self, k):
        # for r = n = k the c_k volume coefficient is k!/(2pi)^k times the
        # double mixed discriminant of the associated block map
        for seed in (23, 24, 25):
            t = random_griffiths_curvature(k, k, 2, 0.3, seed=seed)
            tau, _ = weak_positivity_min(chern_forms(t)[k], samples=1, seed=0)
            phi = phi_direct(t).value
            assert phi > 0.0
            assert abs(tau - math.factorial(k) / TWO_PI ** k * phi) < 1e-10 * abs(phi)
        # at every (rank, dim), c_k[I, J] = scale sum_S Phi(R[S, S][:, :, I, J]),
        # each Phi a complex permutation loop over one k x k sub-block map.  For
        # I = J the map restricts a Griffiths positive tensor, so it is a
        # positive map: Phi is real, and at k = 3 positive by the paper's theorem
        scale = (1j / TWO_PI) ** k * (-1) ** (k * (k - 1) // 2) * math.factorial(k)
        for rank, dim in [(3, 3), (4, 3), (5, 3), (3, 4), (4, 4)]:
            if k > dim or k > rank:
                continue
            for seed in range(23, 28):
                t = random_griffiths_curvature(rank, dim, 2, 0.3, seed=seed)
                ck = chern_forms(t)[k].coeffs
                for x, i in enumerate(subsets(dim, k)):
                    for y, j in enumerate(subsets(dim, k)):
                        maps = [BlockMap(t.entries[np.ix_(s, s, i, j)])
                                for s in subsets(rank, k)]
                        phis = [loop_phi_direct(h) for h in maps]
                        assert abs(ck[x, y] - scale * sum(phis)) <= 1e-14 * np.abs(ck).max()
                        if i != j:
                            continue
                        for h, phi in zip(maps, phis):
                            assert abs(phi.imag) <= 1e-13 * abs(phi)
                            assert abs(phi_direct(h).value - phi.real) <= 1e-13 * abs(phi)
                            assert k != 3 or phi.real > 0.0

    def test_fast_path_matches_direct_wedge(self):
        rng = np.random.default_rng(26)
        t = random_griffiths_curvature(3, 3, 2, 0.2, seed=27)
        cs = chern_forms(t)
        for u, q in ((cs[1], 2), (cs[2], 1)):
            val, witness = weak_positivity_min(u, samples=500, seed=3)
            covs = [covector(w) for w in witness]
            beta = covs[0]
            for extra in covs[1:]:
                beta = wedge(beta, extra)
            direct = volume_coefficient(
                wedge(u, (1j) ** (q * q) * wedge(beta, conjugate(beta))))
            assert abs(direct.real - val) < 1e-12
            assert abs(direct.imag) < 1e-12

    def test_deterministic(self):
        u = form_from_terms(2, {((0,), (0,)): 1j, ((1,), (1,)): 2j})
        a = weak_positivity_min(u, samples=3000, seed=9)
        b = weak_positivity_min(u, samples=3000, seed=9)
        assert a[0] == b[0]

    def test_negated_curvature_is_flagged(self):
        # true-negative control for the sweep: flipping the sign of a positive
        # tensor flips c3 (odd degree), so both the q=0 and q=1 testers must
        # report a negative minimum
        t = random_griffiths_curvature(3, 3, 2, 0.3, seed=30)
        neg = CurvatureTensor(rank=3, dim=3, entries=-t.entries)
        val3, _ = weak_positivity_min(chern_forms(neg)[3], samples=1, seed=0)
        assert val3 < 0.0
        t4 = random_griffiths_curvature(3, 4, 2, 0.3, seed=31)
        neg4 = CurvatureTensor(rank=3, dim=4, entries=-t4.entries)
        val4, witness = weak_positivity_min(chern_forms(neg4)[3],
                                            samples=2000, seed=1)
        assert val4 < 0.0
        assert len(witness) == 1


def random_real_pp(rng, n, p):
    """Random real (p,p)-form on C^n with every coefficient populated; indefinite."""
    m = math.comb(n, p)
    u = Form(n, p, p, rng.standard_normal((m, m, 2)).view(complex)[..., 0])
    return u + conjugate(u)


def covector_wedge(n, covectors):
    """beta = beta_1 ^ ... ^ beta_q as a Form, from coefficient vectors."""
    factors = [covector(w) for w in covectors]
    beta = factors[0]
    for f in factors[1:]:
        beta = wedge(beta, f)
    return beta


def pairing_spectrum(u, q):
    """(M, ascending eigenvalues of the Hermitian part of M)."""
    m = _pairing_matrix(u, q)
    return m, np.linalg.eigvalsh((m + m.conj().T) / 2)


def rayleigh(m, g):
    """b^T M conj(b) / |b|^2 for the Pluecker vectors b of covector stacks g (s, q, n)."""
    b = _plucker(g)
    assert b.shape == (len(g), len(m))
    return (np.einsum("sk,kl,sl->s", b, m, b.conj()).real
            / np.einsum("sk,sk->s", b, b.conj()).real)


def base_unitary_change(t, seed):
    """R'[i, j] = U^T R[i, j] conj(U) for a seeded unitary U on the base."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    u, _ = np.linalg.qr(z)
    entries = np.einsum("ac,ijab,bd->ijcd", u, t.entries, u.conj())
    return CurvatureTensor(rank=t.rank, dim=t.dim, entries=entries)


EXACT_CASES = [(n, q) for n in range(2, 6) for q in sorted({1, n - 1})]


class TestExactWeakPositivity:
    @pytest.mark.parametrize("n,q", EXACT_CASES)
    def test_witness_is_unit_and_attains_value(self, n, q):
        rng = np.random.default_rng(100 + 10 * n + q)
        for u in (random_real_pp(rng, n, n - q),
                  chern_forms(random_griffiths_curvature(n - q, n, 2, 0.3, 7 * n + q))[n - q]):
            assert weak_positivity_is_exact(u)
            val, witness = weak_positivity_min(u, samples=1, seed=0)
            m, lam = pairing_spectrum(u, q)
            margin = len(m) * 1e-14 * np.max(np.abs(lam))
            assert len(witness) == q
            b = _plucker(np.array(witness))
            assert abs(np.linalg.norm(b) - 1.0) < 1e-14
            beta = covector_wedge(n, witness)
            direct = volume_coefficient(wedge(u, (1j) ** (q * q) * wedge(beta, conjugate(beta))))
            assert 0.0 <= direct.real - val <= 2 * margin
            assert abs(direct.imag) <= margin
            assert abs(val + margin - lam[0]) <= 1e-13 * np.max(np.abs(lam))

    @pytest.mark.parametrize("n,q", EXACT_CASES)
    def test_below_every_sampled_rayleigh_quotient(self, n, q):
        rng = np.random.default_rng(200 + 10 * n + q)
        u = random_real_pp(rng, n, n - q)
        val, _ = weak_positivity_min(u, samples=1, seed=0)
        m = _pairing_matrix(u, q)
        g = sample_unit_sphere(rng, (2000, q), n) * rng.uniform(0.1, 3.0, (2000, q, 1))
        assert val <= rayleigh(m, g).min()

    @pytest.mark.parametrize("rank,dim,k", [(3, 3, 1), (3, 3, 2), (3, 4, 3), (4, 4, 3),
                                            (3, 5, 1), (4, 5, 4)])
    def test_invariant_under_unitary_base_change(self, rank, dim, k):
        t = random_griffiths_curvature(rank, dim, rank, 0.2, seed=40 + dim + k)
        val, _ = weak_positivity_min(chern_forms(t)[k], samples=1, seed=0)
        for seed in (1, 2):
            moved, _ = weak_positivity_min(chern_forms(base_unitary_change(t, seed))[k],
                                           samples=1, seed=0)
            assert abs(moved - val) <= 1e-12 * abs(val)

    @pytest.mark.parametrize("rank,dim,k", [(3, 3, 1), (3, 4, 1), (3, 4, 3), (5, 5, 1),
                                            (3, 5, 3)])
    def test_negated_curvature_goes_negative(self, rank, dim, k):
        # c_k(-R) = (-1)^k c_k(R): odd k turns a positive form negative;
        # (3, 5, 3) is q = 2, the sampled path
        t = random_griffiths_curvature(rank, dim, 2, 0.3, seed=50 + dim + k)
        val, witness = weak_positivity_min(chern_forms(t)[k], samples=500, seed=1)
        neg = CurvatureTensor(rank=rank, dim=dim, entries=-t.entries)
        nval, nwitness = weak_positivity_min(chern_forms(neg)[k], samples=500, seed=1)
        assert val > 0.0 > nval
        assert len(nwitness) == dim - k

    @pytest.mark.parametrize("p,q,samples,match", [(1, 2, 1, "not \\(p,p\\)"),
                                                  (4, 4, 1, "exceeds ambient")])
    def test_rejects_invalid_input(self, p, q, samples, match):
        with pytest.raises(ValueError, match=match):
            weak_positivity_min(Form.zero(3, p, q), samples=samples, seed=0)

    @pytest.mark.parametrize("samples,match", [(0, "samples must be an integer >= 1"),
                                               (float("nan"), "an integer >= 1"),
                                               (2.5, "an integer >= 1")])
    def test_sampled_path_rejects_invalid_samples(self, samples, match):
        # (2, 2) on C^4 is q = 2, the sampled path
        with pytest.raises(ValueError, match=match):
            weak_positivity_min(Form.zero(4, 2, 2), samples=samples, seed=0)

    @pytest.mark.parametrize("dim,k", [(3, 1), (3, 2), (3, 3), (4, 3)])
    def test_exact_path_takes_zero_samples(self, dim, k):
        # the exact path draws no sample, so it needs none
        u = chern_forms(random_griffiths_curvature(3, dim, 3, 0.2, seed=60 + dim + k))[k]
        val, witness = weak_positivity_min(u, samples=0)
        want, want_witness = weak_positivity_min(u)
        assert val == want
        assert len(witness) == len(want_witness) == dim - k
        for got, ref in zip(witness, want_witness):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_rejects_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            weak_positivity_min(Form.zero(3, 1, 1), samples=10, seed=seed)

    def test_zero_form_is_exact_zero(self):
        val, witness = weak_positivity_min(Form.zero(3, 0, 0), samples=1, seed=0)
        assert val == 0.0
        assert len(witness) == 3


class TestSampledRayleigh:
    @pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (5, 3)])
    def test_never_below_lambda_min(self, n, q):
        rng = np.random.default_rng(300 + 10 * n + q)
        for u in (random_real_pp(rng, n, n - q),
                  chern_forms(random_griffiths_curvature(3, n, 3, 0.2, 60 + n + q))[n - q]):
            assert not weak_positivity_is_exact(u)
            val, _ = weak_positivity_min(u, samples=3000, seed=4)
            _, lam = pairing_spectrum(u, q)
            assert val >= lam[0] - 1e-14 * np.max(np.abs(lam))

    @pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (5, 3)])
    def test_value_is_rayleigh_quotient_of_witness(self, n, q):
        rng = np.random.default_rng(400 + 10 * n + q)
        u = random_real_pp(rng, n, n - q)
        val, witness = weak_positivity_min(u, samples=2000, seed=5)
        m = _pairing_matrix(u, q)
        g = np.array(witness)
        scaled = g.copy()
        scaled[0] *= 3.7 - 1.2j
        scaled[-1] *= 0.05
        got = rayleigh(m, np.stack([g, scaled]))
        assert np.max(np.abs(got - val)) <= 1e-13 * max(abs(val), 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_merge_tensor_matches_bubble_sort_oracle(n):
    # every pair of index subsets, including those beyond top degree
    for a in range(n + 1):
        for b in range(n + 1):
            e = merge_tensor(n, a, b)
            merged = subsets(n, a + b)
            assert e.shape == (math.comb(n, a), math.comb(n, b), len(merged))
            assert not e.flags.writeable
            for x, i in enumerate(subsets(n, a)):
                for y, j in enumerate(subsets(n, b)):
                    key, sign = brute_force_wedge_term((i, ()), (j, ()))
                    want = np.zeros(len(merged))
                    if key is not None:
                        want[merged.index(key[0])] = sign
                    assert np.array_equal(e[x, y], want)


def recursive_minors(g, ks):
    """Oracle: the former first-row Laplace recursion, one minor at a time."""
    def bdet(a):
        if a.shape[1] == 1:
            return a[:, 0, 0]
        acc = np.zeros(a.shape[0], dtype=complex)
        cols = list(range(a.shape[1]))
        for pos in range(a.shape[1]):
            term = a[:, 0, pos] * bdet(a[:, 1:, :][:, :, cols[:pos] + cols[pos + 1:]])
            acc += term if pos % 2 == 0 else -term
        return acc

    return np.stack([bdet(g[:, :, list(k)]) for k in ks], axis=1)


@pytest.mark.parametrize("q,tol", [(1, 0.0), (2, 0.0), (3, 1e-15), (4, 1e-15)])
def test_batched_minors_match_recursion(q, tol):
    # unit covectors keep every minor below 1, so the tolerance is absolute
    for n in range(q, 6):
        g = sample_unit_sphere(np.random.default_rng(10 * n + q), (300, q), n)
        ks = list(itertools.combinations(range(n), q))
        got = _plucker(g)
        assert got.shape == (300, len(ks))
        assert np.max(np.abs(got - recursive_minors(g, ks))) <= tol


class TestGriffithsGenerator:
    def test_symmetry_exact(self):
        t = random_griffiths_curvature(4, 3, 3, 0.2, seed=28)
        flipped = np.conj(np.transpose(t.entries, (1, 0, 3, 2)))
        assert np.max(np.abs(t.entries - flipped)) == 0.0

    def test_diagonal_case_c3(self):
        # m = 0: R = eps * delta * delta, c3 = C(r,3) eps^3 (3!/(2pi)^3) vol
        eps = 0.4
        t = random_griffiths_curvature(4, 3, 0, eps, seed=29)
        tau = volume_coefficient(chern_forms(t)[3]).real
        want = math.comb(4, 3) * eps ** 3 * 6.0 / TWO_PI ** 3
        assert abs(tau - want) < 1e-14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_griffiths_curvature(3, 3, 2, eps=0.0, seed=0)
        with pytest.raises(ValueError):
            random_griffiths_curvature(3, 3, -1, eps=0.1, seed=0)
        for terms in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="terms must be an integer >= 0"):
                random_griffiths_curvature(3, 3, terms, eps=0.3, seed=1)
        with pytest.raises(ValueError, match="eps must be positive"):
            random_griffiths_curvature(3, 3, 2, eps=float("nan"), seed=0)
        # inf * 0 off the diagonal would make the tensor NaN
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            random_griffiths_curvature(3, 3, 2, eps=float("inf"), seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_rejects_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            random_griffiths_curvature(3, 3, 2, eps=0.1, seed=seed)

    @pytest.mark.parametrize("size", [0, 2.5, True])
    @pytest.mark.parametrize("name", ["rank", "dim"])
    def test_rejects_invalid_size(self, name, size):
        sizes = {"rank": 3, "dim": 3, name: size}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            random_griffiths_curvature(sizes["rank"], sizes["dim"], 2, eps=0.1, seed=0)


@pytest.mark.parametrize("rank,dim", [(2, 3), (3, 2), (2, 2)])
def test_curvature_declared_sizes_must_match_entries(rank, dim):
    with pytest.raises(ValueError, match="entries shape"):
        CurvatureTensor(rank=rank, dim=dim, entries=np.zeros((3, 3, 3, 3)))


def test_curvature_rejects_non_finite():
    entries = np.zeros((2, 2, 2, 2), dtype=complex)
    entries[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        CurvatureTensor(rank=2, dim=2, entries=entries)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
def test_form_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Form(2, 1, 1, [[1.0, 0.0], [0.0, bad]])


# the last two: stacks, whose last two axes must have the form's shape
@pytest.mark.parametrize("n,p,q,shape", [(3, 1, 1, (3, 2)), (3, 2, 1, (3, 1)),
                                         (3, 0, 0, (0, 0)), (2, 3, 0, (1, 1)),
                                         (3, 1, 2, (4, 3, 2)), (3, 1, 1, (3, 3, 1))])
def test_form_rejects_wrong_shape(n, p, q, shape):
    with pytest.raises(ValueError, match="needs coefficients of shape"):
        Form(n, p, q, np.zeros(shape))


def overflow_cases():
    """Finite forms or tensors whose public result leaves the float range."""
    big = 1e200 * standard_omega(3)
    t = random_griffiths_curvature(3, 3, 2, 0.2, seed=9)
    cs = chern_forms(t)
    huge_c1 = [cs[0], 1e110 * cs[1], cs[2], cs[3]]
    return {
        "wedge": lambda: wedge(big, big),
        "add": lambda: Form(1, 0, 0, [[1e308]]) + Form(1, 0, 0, [[1e308]]),
        "mul": lambda: big * 1e200,
        "schur_form": lambda: schur_form(huge_c1, (1, 1, 1)),
        "c3_principal_minors": lambda: c3_principal_minors(
            CurvatureTensor(rank=3, dim=3, entries=1e110 * t.entries)),
        "twist_chern": lambda: twist_chern(cs, 1.0, 1e110 * standard_omega(3)),
    }


@pytest.mark.parametrize("case", list(overflow_cases()))
def test_every_public_result_rejects_overflow(case):
    # a product of finite forms overflows; the result is checked once
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        overflow_cases()[case]()


def test_single_form_functions_reject_stacks():
    stack = Form(3, 2, 2, np.ones((2, 3, 3)))
    tops = Form(2, 2, 2, np.ones((2, 1, 1)))
    for call in (lambda: volume_coefficient(stack), lambda: volume_coefficient(tops),
                 lambda: weak_positivity_min(stack)):
        with pytest.raises(ValueError, match=r"coefficients of shape \(2, 3, 3\)|\(2, 1, 1\)"):
            call()


def test_mismatched_bidegrees_are_rejected():
    u, v = Form.zero(3, 1, 1), Form.zero(3, 2, 1)
    for op in (Form.__add__, Form.__sub__, max_coeff_diff):
        with pytest.raises(ValueError, match="differ in"):
            op(u, v)
    with pytest.raises(ValueError, match="differ in"):
        u + Form.zero(4, 1, 1)
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        wedge(u, Form.zero(4, 1, 1))


def test_validate_partition_padding():
    assert validate_partition((2, 1), rank=3, dim=3) == (2, 1, 0)
    assert validate_partition((1, 1, 1), rank=3, dim=5) == (1, 1, 1)


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
def test_curvature_symmetry_check_is_relative(c):
    entries = c * random_griffiths_curvature(3, 3, 2, 0.2, seed=70).entries
    wobble = entries.copy()
    wobble[0, 1, 0, 1] *= 1 + 1e-14
    assert CurvatureTensor(rank=3, dim=3, entries=wobble).rank == 3
    bad = entries.copy()
    bad[0, 1, 0, 1] += 1e-6 * c
    with pytest.raises(ValueError, match="block symmetry defect"):
        CurvatureTensor(rank=3, dim=3, entries=bad)
