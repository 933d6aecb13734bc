"""Mixed discriminants and spherical moments, each route against the others."""

import itertools
import math
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import (mixed_discriminant_polarized, trace_expansion_r2,
                     trace_expansion_r3)

from schurpos import discriminants
from schurpos.discriminants import (mixed_discriminant, moment_exact, moment_mc,
                                    permutation_table, power_moment, principal_sum,
                                    rising_factorial, sample_unit_sphere, stack_det,
                                    subset_table)
from schurpos.hermitian import det


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def unit(i, j, n):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def brute_force_mixed(mats):
    """Independent oracle: literal permutation sum with itertools and numpy det."""
    r = len(mats)
    total = 0j
    for perm in itertools.permutations(range(r)):
        rows = np.stack([mats[perm[i]][i, :] for i in range(r)])
        total += np.linalg.det(rows)
    return total / math.factorial(r)


def cycle_decomposition(perm):
    """Cycles of a permutation, each starting at its smallest element."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(cyc)
    return cycles


def cycle_trace_moment(mats, reverse=False):
    """The definition: (1/(r)_n) sum over S_n of tr_pi, each cycle's word read
    from its smallest element forward (or backward with ``reverse``)."""
    us = [np.asarray(m, dtype=complex) for m in mats]
    total = 0j
    for perm in itertools.permutations(range(len(us))):
        term = 1.0 + 0j
        for cyc in cycle_decomposition(perm):
            word = us[cyc[0]]
            for i in (reversed(cyc[1:]) if reverse else cyc[1:]):
                word = word @ us[i]
            term *= np.trace(word)
        total += term
    return total / rising_factorial(us[0].shape[0], len(us))


def inversion_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


class TestSignedPermutations:
    """``permutation_table``: every permutation once, lexicographic, signed."""

    def test_order_is_stable(self):
        perms, signs = permutation_table(3)
        assert permutation_table(3) is permutation_table(3)
        assert (tuple(perms[0]), signs[0]) == ((0, 1, 2), 1)
        assert not perms.flags.writeable and not signs.flags.writeable

    def test_signs_match_inversion_parity(self):
        perms, signs = permutation_table(5)
        for perm, sign in zip(perms.tolist(), signs.tolist()):
            assert sign == inversion_sign(perm)

    def test_counts(self):
        perms, signs = permutation_table(4)
        assert perms.shape == (24, 4) and signs.shape == (24,)
        assert len({tuple(p) for p in perms.tolist()}) == 24

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_table_matches_tuples(self, n):
        perms, signs = permutation_table(n)
        assert perms.shape == (math.factorial(n), n)
        assert [(tuple(p), s) for p, s in zip(perms.tolist(), signs.tolist())] == \
            [(p, inversion_sign(p)) for p in itertools.permutations(range(n))]


class TestSubsetTable:
    @pytest.mark.parametrize("n", [0, 1, 3, 4])
    def test_rows_are_the_bits_of_the_index(self, n):
        rows, signs = subset_table(n)
        assert rows.shape == (1 << n, n) and signs.shape == (1 << n,)
        for m, (row, sign) in enumerate(zip(rows.tolist(), signs.tolist())):
            assert row == [m >> k & 1 for k in range(n)]
            assert sign == (-1) ** (n - sum(row))
        assert not rows.flags.writeable and not signs.flags.writeable


def fraction_det(m):
    """Independent oracle: exact determinant by elimination over the rationals."""
    a = [[Fraction(int(v)) for v in row] for row in m]
    n, total = len(a), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            total = -total
        total *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return total


class TestStackDet:
    @pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=["one", "stack", "grid"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, k, lead):
        # roundoff of either sum scales with Hadamard's bound prod_i |row i|
        rng = np.random.default_rng(40 + k)
        x = rng.standard_normal((*lead, k, k)) + 1j * rng.standard_normal((*lead, k, k))
        got, want = stack_det(x), np.linalg.det(x)
        assert np.shape(got) == lead
        bound = np.prod(np.linalg.norm(x, axis=-1), axis=-1)
        assert (abs(got - want) <= 1e-13 * bound).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_on_small_integers(self, k):
        rng = np.random.default_rng(50 + k)
        x = rng.integers(-4, 5, size=(200, k, k))
        got = stack_det(x.astype(complex))
        want = [fraction_det(m) for m in x]
        assert got.tolist() == [complex(w) for w in want]
        # a repeated row gives exactly 0, in real arithmetic too
        if k > 1:
            x[:, 1] = x[:, 0]
            assert (stack_det(x.astype(float)) == 0.0).all()


class TestPrincipalSumDegreeOne:
    """At k = 1 the sum is the linear form of the diagonal block sum."""

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["one", "stack", "grid"])
    @pytest.mark.parametrize("form,w", [(stack_det, 1), (lambda x: power_moment(x, 1), 3)],
                             ids=["stack_det", "power_moment"])
    def test_is_form_of_diagonal_sum(self, form, w, lead):
        rng = np.random.default_rng(61 + w)
        r = 4
        # rows of very different scales: no cancellation for scales to guard
        blocks = (np.logspace(-150, 150, r)[:, None, None, None]
                  * (rng.standard_normal((*lead, r, r, w, w))
                     + 1j * rng.standard_normal((*lead, r, r, w, w))))
        got = principal_sum(blocks, 1, form)
        want = form(sum(blocks[..., i, i, :, :] for i in range(r)))
        assert np.shape(got) == lead
        assert (abs(got - want) <= 1e-15 * abs(want)).all()


class TestMixedDiscriminant:
    def test_identity_triple(self):
        eye = np.eye(3, dtype=complex)
        assert abs(mixed_discriminant([eye, eye, eye]) - 1.0) < 1e-14

    def test_rank_two_units(self):
        x, y = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        want = brute_force_mixed([x.astype(complex), y.astype(complex)])
        assert abs(want - 0.5) < 1e-15
        assert abs(mixed_discriminant([x, y]) - 0.5) < 1e-14

    def test_repeated_matrix_gives_det(self):
        a = np.diag([1.0, 2.0, 3.0])
        assert abs(mixed_discriminant([a, a, a]) - 6.0) < 1e-11
        rng = np.random.default_rng(5)
        b = random_hermitian(rng, 4)
        assert abs(mixed_discriminant([b] * 4) - det(b)) < 1e-11

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(13)
        mats = [random_hermitian(rng, 3) for _ in range(3)]
        base = mixed_discriminant(mats)
        for perm in itertools.permutations(range(3)):
            assert abs(mixed_discriminant([mats[p] for p in perm]) - base) < 1e-12

    def test_multilinearity(self):
        rng = np.random.default_rng(17)
        a, b, c, d = (random_hermitian(rng, 3) for _ in range(4))
        alpha, beta = 0.7, -1.3
        lhs = mixed_discriminant([a, alpha * b + beta * c, d])
        rhs = (alpha * mixed_discriminant([a, b, d])
               + beta * mixed_discriminant([a, c, d]))
        assert abs(lhs - rhs) < 1e-11

    def test_congruence_covariance(self):
        rng = np.random.default_rng(19)
        mats = [random_hermitian(rng, 3) for _ in range(3)]
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = mixed_discriminant([c @ m @ c.conj().T for m in mats])
        rhs = abs(det(c)) ** 2 * mixed_discriminant(mats)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                for _ in range(4)]
        assert abs(mixed_discriminant(mats) - brute_force_mixed(mats)) < 1e-11

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            mixed_discriminant([np.eye(2), np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="rank 9 exceeds supported maximum 8"):
            mixed_discriminant([np.eye(9)] * 9)

    @pytest.mark.parametrize("bad", [[], [np.eye(2), np.eye(3)],
                                     np.ones((2, 2, 3)), [np.eye(2), np.full((2, 2), np.inf)]])
    def test_rejects_malformed_word(self, bad):
        with pytest.raises(ValueError):
            mixed_discriminant(bad)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_stack_matches_per_item(self, r):
        rng = np.random.default_rng(24 + r)
        stack = (rng.standard_normal((2, 3, r, r, r))
                 + 1j * rng.standard_normal((2, 3, r, r, r)))
        got = mixed_discriminant(stack)
        assert got.shape == (2, 3)
        want = [[mixed_discriminant(word) for word in row] for row in stack]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestPolarized:
    def test_identity_pair(self):
        assert abs(mixed_discriminant_polarized([np.eye(2)] * 2) - 1.0) < 1e-14

    def test_agrees_with_permutation_sum(self):
        rng = np.random.default_rng(29)
        mats = [random_hermitian(rng, 2) for _ in range(2)]
        a = mixed_discriminant(mats)
        b = mixed_discriminant_polarized(mats)
        assert abs(a - b) < 1e-11

    def test_matrix_units(self):
        mats = [unit(0, 0, 3), unit(1, 1, 3), unit(2, 2, 3)]
        assert abs(mixed_discriminant_polarized(mats) - 1.0 / 6.0) < 1e-14


class TestTraceExpansions:
    def test_r3_identity(self):
        eye = np.eye(3)
        assert abs(trace_expansion_r3(eye, eye, eye) - 1.0) < 1e-14

    def test_r3_matches_permutation_sum(self):
        rng = np.random.default_rng(31)
        u, v, w = (random_hermitian(rng, 3) for _ in range(3))
        assert abs(trace_expansion_r3(u, v, w)
                   - mixed_discriminant([u, v, w])) < 1e-11

    def test_r3_partial_identity_vs_polarized(self):
        rng = np.random.default_rng(37)
        eye = np.eye(3, dtype=complex)
        w = random_hermitian(rng, 3)
        assert abs(trace_expansion_r3(eye, eye, w)
                   - mixed_discriminant_polarized([eye, eye, w])) < 1e-11

    def test_r2_cases(self):
        eye = np.eye(2)
        assert abs(trace_expansion_r2(eye, eye) - 1.0) < 1e-15
        x, y = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert abs(trace_expansion_r2(x, y) - 0.5) < 1e-15
        rng = np.random.default_rng(41)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(trace_expansion_r2(z, z) - det(z)) < 1e-12


class TestMomentExact:
    def test_single_matrix(self):
        u = np.diag([3.0, 0.0, 0.0])
        assert abs(moment_exact([u]) - 1.0) < 1e-14

    def test_identity_pair_r3(self):
        # (tr I tr I + tr I) / (3*4) = (9 + 3) / 12
        eye = np.eye(3)
        assert abs(moment_exact([eye, eye]) - 1.0) < 1e-14

    def test_identity_triple_r3(self):
        # (27 + 3*9 + 2*3) / (3*4*5) = 60/60
        eye = np.eye(3)
        assert abs(moment_exact([eye, eye, eye]) - 1.0) < 1e-14

    def test_orthogonal_projectors(self):
        u, v = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        # closed form (tr U tr V + tr UV)/12 = 1/12; cross-checked by MC below
        assert abs(moment_exact([u, v]) - 1.0 / 12.0) < 1e-14

    def test_hermitian_words_are_real(self):
        rng = np.random.default_rng(43)
        for n in (2, 3, 4):
            us = [random_hermitian(rng, 3) for _ in range(n)]
            assert abs(moment_exact(us).imag) < 1e-12

    def test_orientation_independence(self):
        # summing tr_pi over all of S_n is invariant under reading cycles
        # backwards (pi <-> pi^{-1}); the kernel matches both readings
        rng = np.random.default_rng(47)
        us = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
              for _ in range(3)]
        fwd, rev = cycle_trace_moment(us), cycle_trace_moment(us, reverse=True)
        assert abs(fwd - rev) < 1e-12
        assert abs(fwd - moment_exact(us)) < 1e-12

    @pytest.mark.parametrize("r,n", [(1, 3), (2, 2), (2, 5), (3, 4), (4, 3), (5, 6)])
    def test_matches_cycle_trace_sum(self, r, n):
        rng = np.random.default_rng(200 + 10 * r + n)
        us = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
        want = cycle_trace_moment(us)
        scale = math.prod(np.linalg.norm(u, 2) for u in us)
        assert abs(moment_exact(us) - want) <= 1e-13 * scale

    def test_factors_of_unequal_size(self):
        # factors of 1.9e-5 and about 1e-3: polarizing them unscaled cancelled
        # to an error of 5.2e-30 against a roundoff scale of 3.3e-30
        rng = np.random.default_rng(164153841)
        us = 1e-3 * (rng.standard_normal((5, 1, 1)) + 1j * rng.standard_normal((5, 1, 1)))
        scale = math.prod(np.linalg.norm(u, 2) for u in us)
        assert abs(moment_exact(us) - cycle_trace_moment(us)) <= 1e-13 * scale

    def test_zero_factor(self):
        rng = np.random.default_rng(83)
        stack = rng.standard_normal((2, 3, 2, 2)) + 0j
        stack[1, 1] = 0.0
        got = moment_exact(stack)
        assert abs(got[1]) <= 1e-15
        assert abs(got[0] - cycle_trace_moment(stack[0])) < 1e-14

    def test_longest_word_boundary(self):
        # sum over S_6 of r^cycles equals (r)_6, so the identity word stays 1
        assert abs(moment_exact([np.eye(2)] * 6) - 1.0) < 1e-14

    def test_word_length_cap(self):
        with pytest.raises(ValueError):
            moment_exact([np.eye(2)] * 7)

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 3), (3, 2), (4, 4)])
    def test_stack_matches_per_item(self, r, n):
        rng = np.random.default_rng(10 * r + n)
        stack = (rng.standard_normal((3, 2, n, r, r))
                 + 1j * rng.standard_normal((3, 2, n, r, r)))
        got = moment_exact(stack)
        assert got.shape == (3, 2)
        want = [[moment_exact(word) for word in row] for row in stack]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 3), (2, 4)])
    def test_matches_exact_monomial_integration(self, r, n):
        # Independent of the cycle-trace formula: expand prod_i xi* U_i xi into
        # monomials conj(xi)^alpha xi^beta; only alpha = beta survives, with
        # int |xi^alpha|^2 dmu = alpha! (r-1)! / (r-1+|alpha|)!.
        rng = np.random.default_rng(50 + 10 * r + n)
        us = rng.integers(-3, 4, size=(n, r, r))
        exact = Fraction(0)
        for a in itertools.product(range(r), repeat=n):
            alpha = Counter(a)
            weight = Fraction(math.prod(math.factorial(k) for k in alpha.values())
                              * math.factorial(r - 1), math.factorial(r - 1 + n))
            for b in set(itertools.permutations(a)):
                exact += weight * math.prod(int(us[i, a[i], b[i]]) for i in range(n))
        got = moment_exact(us)
        assert abs(got - float(exact)) <= 1e-13 * max(1.0, abs(float(exact)))


class TestMomentMonteCarlo:
    def test_constant_word(self):
        est, stderr = moment_mc([np.eye(3)] * 2, samples=5000, seed=1)
        assert abs(est - 1.0) < 1e-12
        assert stderr < 1e-12

    def test_projector_pair(self):
        u, v = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        est, stderr = moment_mc([u, v], samples=200_000, seed=2)
        assert abs(est - 1.0 / 12.0) < 5 * stderr

    def test_random_triple(self):
        rng = np.random.default_rng(53)
        us = [random_hermitian(rng, 3) for _ in range(3)]
        want = moment_exact(us)
        est, stderr = moment_mc(us, samples=400_000, seed=3)
        assert abs(est - want) < 5 * stderr

    def test_deterministic_in_seed(self):
        u = np.diag([1.0, 2.0, 3.0])
        a = moment_mc([u, u], samples=70_000, seed=9)
        b = moment_mc([u, u], samples=70_000, seed=9)
        assert a == b
        c = moment_mc([u, u], samples=70_000, seed=10)
        assert a != c

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            moment_mc([np.eye(2)], samples=0, seed=0)

    @pytest.mark.parametrize("samples", [float("nan"), 2.5, True])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            moment_mc([np.eye(2), np.eye(2)], samples=samples, seed=0)

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError, match="empty moment word"):
            moment_mc([], samples=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_rejects_invalid_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            moment_mc([np.eye(2), np.eye(2)], samples=10, seed=seed)

    def test_rejects_non_hermitian_factor(self):
        rng = np.random.default_rng(83)
        u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="not Hermitian"):
            moment_mc([random_hermitian(rng, 3), u], samples=10, seed=0)

    def test_symmetrizes_a_factor_within_tolerance(self):
        rng = np.random.default_rng(87)
        us = [random_hermitian(rng, 3) + 1e-13 * random_hermitian(rng, 3) * 1j
              for _ in range(2)]
        sym = [(u + u.conj().T) / 2 for u in us]
        assert moment_mc(us, samples=1000, seed=5) == moment_mc(sym, samples=1000, seed=5)

    def test_single_sample_has_zero_stderr(self):
        rng = np.random.default_rng(71)
        us = [random_hermitian(rng, 3) for _ in range(2)]
        est, stderr = moment_mc(us, samples=1, seed=4)
        assert stderr == 0.0
        assert est == pytest.approx(einsum_moment_mc(us, 1, 4)[0], rel=1e-12)


class TestMomentMonteCarloStack:
    """A stack of words shares one sample stream, and word k of a stack is
    bitwise the single-word call with the same samples and seed."""

    @staticmethod
    def hexes(est, stderr):
        return [(complex(e).real.hex(), complex(e).imag.hex(), float(s).hex())
                for e, s in zip(np.ravel(est), np.ravel(stderr))]

    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    @pytest.mark.parametrize("samples", [1, 5_000, discriminants.MC_BLOCK + 1_000])
    def test_word_k_is_its_own_call(self, lead, samples):
        rng = np.random.default_rng(107)
        words = np.array([[random_hermitian(rng, 3) for _ in range(2)]
                          for _ in range(math.prod(lead))]).reshape(*lead, 2, 3, 3)
        est, stderr = moment_mc(words, samples, seed=31)
        assert est.shape == stderr.shape == lead
        singles = [moment_mc(word, samples, seed=31) for word in words.reshape(-1, 2, 3, 3)]
        assert all(type(e) is complex and type(s) is float for e, s in singles)
        assert self.hexes(est, stderr) == self.hexes(*zip(*singles))

    def test_identity_word_has_zero_stderr(self):
        rng = np.random.default_rng(109)
        words = np.array([[random_hermitian(rng, 3) for _ in range(2)],
                          [np.eye(3), np.eye(3)],
                          [random_hermitian(rng, 3) for _ in range(2)]])
        est, stderr = moment_mc(words, samples=5_000, seed=37)
        assert abs(est[1] - 1.0) < 1e-12
        assert stderr[1] == 0.0
        assert (stderr[[0, 2]] > 0.0).all()

    @pytest.mark.parametrize("word, factor", [(0, 0), (2, 1), (3, 0)])
    def test_rejects_a_non_hermitian_factor_anywhere(self, word, factor):
        rng = np.random.default_rng(113)
        words = np.array([[random_hermitian(rng, 3) for _ in range(2)] for _ in range(4)])
        words[word, factor, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            moment_mc(words, samples=10, seed=0)
        with pytest.raises(ValueError, match="not Hermitian"):
            moment_mc(words.reshape(2, 2, 2, 3, 3), samples=10, seed=0)


def test_sample_unit_sphere_leading_shape():
    # a (count, q) draw is the inline two-call draw the samplers used before
    a = sample_unit_sphere(np.random.default_rng(5), (7, 2), 3)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((7, 2, 3)) + 1j * rng.standard_normal((7, 2, 3))
    z /= np.linalg.norm(z, axis=2)[:, :, None]
    assert np.array_equal(a, z)
    assert np.array_equal(sample_unit_sphere(np.random.default_rng(5), 7, 3),
                          sample_unit_sphere(np.random.default_rng(5), (7,), 3))


def einsum_moment_mc(mats, samples, seed, block_size=1 << 16):
    """Oracle: the complex-einsum kernel on normalized sphere samples, with
    the blocks, seeds and error estimate of ``moment_mc``: block b draws
    v = (Re xi, Im xi) as one (count, 2r) standard normal array."""
    ms = [np.asarray(m, dtype=complex) for m in mats]
    r = ms[0].shape[0]
    sum_w = 0.0 + 0.0j
    sum_abs2 = 0.0
    done = 0
    block = 0
    while done < samples:
        count = min(block_size, samples - done)
        v = np.random.default_rng(seed + block).standard_normal((count, 2 * r))
        xi = v[:, :r] + 1j * v[:, r:]
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        w = np.ones(count, dtype=complex)
        for m in ms:
            w *= np.einsum("si,ij,sj->s", xi.conj(), m, xi)
        sum_w += complex(w.sum())
        sum_abs2 += float(np.sum(np.abs(w) ** 2))
        done += count
        block += 1
    mean = sum_w / samples
    if samples == 1:
        return mean, 0.0
    var = max(sum_abs2 - samples * abs(mean) ** 2, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


class TestMomentMonteCarloStream:
    """The real-arithmetic kernel reproduces the complex-einsum kernel on the
    same sample stream; 150_000 samples are two full blocks and a partial one."""

    SAMPLES = 150_000

    @pytest.mark.parametrize("r, n", [(2, 2), (3, 2), (3, 3), (4, 4)])
    def test_matches_einsum_kernel(self, r, n):
        rng = np.random.default_rng(1000 + 10 * r + n)
        us = [random_hermitian(rng, r) for _ in range(n)]
        est, stderr = moment_mc(us, self.SAMPLES, seed=17)
        want, want_stderr = einsum_moment_mc(us, self.SAMPLES, seed=17)
        assert est.imag == 0.0
        assert est == pytest.approx(want, rel=1e-12)
        assert stderr == pytest.approx(want_stderr, rel=1e-12)

    def test_tile_size_is_not_part_of_the_stream(self, monkeypatch):
        rng = np.random.default_rng(101)
        us = [random_hermitian(rng, 3) for _ in range(3)]
        results = []
        for tile in (4096, 1000):
            monkeypatch.setattr(discriminants, "MC_TILE", tile)
            results.append(moment_mc(us, self.SAMPLES, seed=29))
        (est, stderr), (est_1000, stderr_1000) = results
        assert est_1000 == pytest.approx(est, rel=1e-12)
        assert stderr_1000 == pytest.approx(stderr, rel=1e-12)


class TestMomentMonteCarloWorkers:
    """Blocks run on as many workers as there are cores and are summed in
    block order, so the result is the same float for any worker count."""

    @staticmethod
    def hermitian_word():
        rng = np.random.default_rng(89)
        return [random_hermitian(rng, 3) for _ in range(3)]

    @staticmethod
    def long_word():
        rng = np.random.default_rng(97)
        return [random_hermitian(rng, 4) for _ in range(4)]

    @pytest.mark.parametrize("word", ["hermitian_word", "long_word"])
    @pytest.mark.parametrize("samples", [150_000, 40_000])
    def test_same_result_for_any_worker_count(self, monkeypatch, word, samples):
        # 150_000 samples are two full blocks and a partial one; 40_000 are
        # one block, which one pool worker runs whatever the core count
        us = getattr(self, word)()
        threads = threading.active_count()
        results = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(discriminants, "_available_cores", lambda: cores)
            results.append(moment_mc(us, samples, seed=23))
            assert threading.active_count() == threads  # no worker outlives the call
        assert results[0] == results[1] == results[2]


def test_symmetric_projector_identity():
    """dim(V^sym2) * E[(xi xi*)^(x2)] equals the symmetrizer on C^2 x C^2."""
    rng = np.random.default_rng(59)
    n = 200_000
    xi = sample_unit_sphere(rng, n, 2)
    outer = np.einsum("si,sj->sij", xi, xi.conj())
    kron = np.einsum("sij,skl->sikjl", outer, outer).reshape(n, 4, 4)
    mean = kron.mean(axis=0)
    stderr = kron.std(axis=0) / math.sqrt(n)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    projector = (np.eye(4) + swap) / 2.0
    diff = np.abs(3.0 * mean - projector)
    assert np.all(diff <= 5 * 3.0 * stderr + 1e-12)
