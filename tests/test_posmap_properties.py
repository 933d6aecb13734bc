"""Property tests for operator scaling and the positivity certificate.

Instances are drawn over rank, seed and an overall scale factor; the module
is skipped when hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import apply_map  # noqa: E402
from schurpos.posmap import (BlockMap, _closed_form_min_eig,  # noqa: E402
                             _grid_minimum, positivity_certificate,
                             random_kraus_map, scale, sinkhorn_normalize)

maps = st.builds(
    lambda r, seed, c: BlockMap(c * random_kraus_map(r, 3, 0.2, seed).blocks),
    st.integers(2, 4), st.integers(0, 2**32 - 1),
    st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(maps)
def test_sinkhorn_output_is_the_reported_scaling(h):
    res = sinkhorn_normalize(h, tol=1e-11, max_iter=1000)
    assert res.converged
    redo = scale(h, res.c1, res.c2)
    assert np.max(np.abs(redo.blocks - res.scaled.blocks)) < 1e-9
    again = sinkhorn_normalize(res.scaled, tol=1e-11, max_iter=1000)
    assert again.iterations == 0


@SETTINGS
@given(maps, st.integers(0, 2**32 - 1))
def test_certificate_witness_and_grid_bound(h, seed):
    val, xi = positivity_certificate(h, grid=128, seed=seed)
    out = apply_map(h, np.outer(xi, xi.conj()))
    attained = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
    assert abs(attained - val) < 1e-14 * np.max(np.abs(h.blocks))
    grid_min, _ = _grid_minimum(h, grid=128, seed=seed)
    assert val <= grid_min


def hermitian_stack(w, seed, c):
    """c times a stack of Hermitian w x w matrices: random ones, and ones
    whose bottom eigenvalue is exactly repeated in exact arithmetic (lam I +
    v v*, the rank-one outputs of the identity map, permuted diagonals and
    multiples of I), where the closed form is least accurate."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, w, w)) + 1j * rng.standard_normal((4, w, w))
    v = rng.standard_normal((4, w)) + 1j * rng.standard_normal((4, w))
    lam = np.array([0.0, 0.0, 1.0, -rng.uniform()])[:, None, None]
    bottom = rng.standard_normal(2)
    diag = [np.diag(np.roll([bottom[k]] * (w - 1) + [bottom[k] + rng.uniform()], k))
            for k in range(2)]
    return c * np.concatenate([(g + g.conj().transpose(0, 2, 1)) / 2,
                               lam * np.eye(w) + np.einsum("si,sj->sij", v, v.conj()),
                               np.array(diag), [rng.standard_normal() * np.eye(w)]])


@SETTINGS
@given(st.integers(2, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
def test_closed_form_min_eig_is_within_1e_7_of_lapack(w, seed, c):
    mats = hermitian_stack(w, seed, c)
    want = np.linalg.eigvalsh(mats)[:, 0]
    top = np.abs(mats).max(axis=(1, 2))
    assert (np.abs(_closed_form_min_eig(mats) - want) <= 1e-7 * top).all()
