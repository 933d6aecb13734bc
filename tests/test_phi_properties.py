"""Property tests for the double mixed discriminant Phi.

Instances are Kraus maps drawn over rank 1-5 and seed; the module is skipped
when hypothesis is not installed.  The symmetries checked here hold for every
map, so each tolerance bounds roundoff only.  The worst cases over 40 seeds
per rank were 1.8e-14 (axis swap), 7.1e-15 (trace map), 2.3e-14 (unitary
invariance) and 2.9e-10 (covariance, whose 1e-8 is criterion 3's bound).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schurpos.phi import phi_direct  # noqa: E402
from schurpos.posmap import (SIDE_SWAP, BlockMap, random_kraus_map,  # noqa: E402
                             scale, trace_map)

SETTINGS = settings(max_examples=25, deadline=None)

seeds = st.integers(0, 2**32 - 1)
maps = st.builds(lambda r, seed: random_kraus_map(r, 3, 0.2, seed), st.integers(1, 5), seeds)


def phi(h: BlockMap) -> float:
    return phi_direct(h).value


def complex_gaussian(rng, r):
    return rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))


def invertible(rng, r):
    """A complex Gaussian matrix with |det| > 0.1, as criterion 3 draws them."""
    while abs(np.linalg.det(m := complex_gaussian(rng, r))) <= 0.1:
        pass
    return m


def unitary(rng, r):
    return np.linalg.qr(complex_gaussian(rng, r))[0]


@SETTINGS
@given(maps)
def test_axis_swap_symmetry(h):
    # Phi of the transposed block family A_pq = (B_ij)_pq is Phi itself
    swapped = phi(BlockMap(h.blocks.transpose(SIDE_SWAP)))
    assert abs(swapped - phi(h)) <= 1e-12 * abs(phi(h))


@pytest.mark.parametrize("r", range(1, 6))
def test_trace_map_is_one(r):
    assert abs(phi(trace_map(r)) - 1.0) <= 1e-12


@SETTINGS
@given(maps, seeds)
def test_unitary_invariance(h, seed):
    rng = np.random.default_rng(seed)
    u, v = unitary(rng, h.r), unitary(rng, h.r)
    assert abs(phi(scale(h, u, v)) - phi(h)) <= 1e-12 * abs(phi(h))


@SETTINGS
@given(maps, seeds)
def test_scaling_covariance(h, seed):
    rng = np.random.default_rng(seed)
    c1, c2 = invertible(rng, h.r), invertible(rng, h.r)
    want = abs(np.linalg.det(c1)) ** 2 * abs(np.linalg.det(c2)) ** 2 * phi(h)
    assert abs(phi(scale(h, c1, c2)) - want) <= 1e-8 * abs(want)
