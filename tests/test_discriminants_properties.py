"""Property tests for the spherical moment kernel, the permutation table and
the signed Leibniz sum.

Words are random complex (n, r, r) arrays with n <= 5 and r <= 4, drawn over
shape, seed and an overall scale; ``moment_exact`` is checked against the
literal cycle-trace sum of ``tests/test_discriminants.py``.  Block arrays are
random complex (..., r, r, w, w) arrays with r <= 5, neither Hermitian nor
normalized, block (i, j) scaled by a_i b_j over a, b in {1e-3, 1, 1e3}^r;
``principal_sum`` from the diagonal is checked against the
Leibniz sum of the full kernel, term by term.  The module is skipped when
hypothesis is not installed.
"""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_discriminants import cycle_trace_moment  # noqa: E402

from schurpos.discriminants import (leibniz_table, mixed_discriminant,  # noqa: E402
                                    moment_exact, permutation_table, power_moment,
                                    principal_sum, rising_factorial)


def complex_word(n, r, seed, c):
    rng = np.random.default_rng(seed)
    return c * (rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r)))


words = st.builds(complex_word, st.integers(1, 5), st.integers(1, 4),
                  st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))

SETTINGS = settings(max_examples=25, deadline=None)


def tolerance(us):
    """Roundoff scale of a moment: 1e-13 x the product of the factors' norms."""
    return 1e-13 * math.prod(np.linalg.norm(u, 2) for u in us)


@SETTINGS
@given(words)
def test_matches_cycle_trace_sum(us):
    assert abs(moment_exact(us) - cycle_trace_moment(us)) <= tolerance(us)


@SETTINGS
@given(words, st.randoms(use_true_random=False))
def test_invariant_under_permuting_factors(us, rnd):
    order = list(range(len(us)))
    rnd.shuffle(order)
    assert abs(moment_exact(us[order]) - moment_exact(us)) <= tolerance(us)


@SETTINGS
@given(words, st.integers(0, 2**32 - 1))
def test_invariant_under_unitary_congruence(us, seed):
    r = us.shape[-1]
    v, _ = np.linalg.qr(complex_word(1, r, seed, 1.0)[0])
    rotated = v.conj().T @ us @ v
    assert abs(moment_exact(rotated) - moment_exact(us)) <= tolerance(us)


@SETTINGS
@given(words)
def test_diagonal_is_complete_homogeneous(us):
    x = us[0]
    n, r = len(us), x.shape[0]
    lam = np.linalg.eigvals(x)
    h_n = sum(math.prod(lam[list(c)])
              for c in itertools.combinations_with_replacement(range(r), n))
    want = math.factorial(n) * h_n / rising_factorial(r, n)
    assert abs(moment_exact([x] * n) - want) <= tolerance([x] * n)


@pytest.mark.parametrize("n", range(7))
def test_permutation_signs_are_determinants(n):
    perms, signs = permutation_table(n)
    matrices = np.eye(n)[perms]
    np.testing.assert_array_equal(np.linalg.det(matrices).round(), signs)


# (r, k) with 1 <= k <= r <= 5, and the leading axes of a block array
ranks = st.integers(1, 5).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r)))
leads = st.sampled_from([(), (2,)])
seeds = st.integers(0, 2**32 - 1)
# one scale per block row and one per block column (a congruence of the input
# side is the case a = conj(b)): the blocks of one Leibniz term differ in scale
scales = st.lists(st.sampled_from([1e-3, 1.0, 1e3]), min_size=5, max_size=5)


def complex_blocks(lead, r, w, seed, a, b):
    rng = np.random.default_rng(seed)
    shape = (*lead, r, r, w, w)
    scale = np.outer(a[:r], b[:r])[..., None, None]
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def assert_is_leibniz_sum(got, blocks, k, kernel):
    """got is sum_t sign_t kernel(word_t) over leibniz_table(r, k), per leading
    index, to 1e-12 x sum_t |term_t|."""
    rows, cols, signs = leibniz_table(blocks.shape[-3], k)
    terms = kernel(blocks[..., rows, cols, :, :]) * signs
    assert got.shape == blocks.shape[:-4]
    assert (abs(got - terms.sum(-1)) <= 1e-12 * abs(terms).sum(-1)).all()


@SETTINGS
@given(ranks, leads, seeds, scales, scales)
def test_principal_sum_of_det_is_the_mixed_discriminant_sum(rk, lead, seed, a, b):
    r, k = rk
    blocks = complex_blocks(lead, r, k, seed, a, b)
    got = principal_sum(blocks, k, np.linalg.det)
    assert_is_leibniz_sum(got, blocks, k, mixed_discriminant)


@SETTINGS
@given(ranks, st.integers(1, 4), leads, seeds, scales, scales)
def test_principal_sum_of_power_moment_is_the_moment_sum(rk, w, lead, seed, a, b):
    r, k = rk
    blocks = complex_blocks(lead, r, w, seed, a, b)
    got = principal_sum(blocks, k, lambda x: power_moment(x, k))
    assert_is_leibniz_sum(got, blocks, k, moment_exact)
