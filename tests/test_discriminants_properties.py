"""Property tests for the spherical moment kernel and the permutation table.

Words are random complex (n, r, r) arrays with n <= 5 and r <= 4, drawn over
shape, seed and an overall scale; ``moment_exact`` is checked against the
literal cycle-trace sum of ``tests/test_discriminants.py``.  The module is
skipped when hypothesis is not installed.
"""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_discriminants import cycle_trace_moment  # noqa: E402

from schurpos.discriminants import (moment_exact, permutation_table,  # noqa: E402
                                    rising_factorial)


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
