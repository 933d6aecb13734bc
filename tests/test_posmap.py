"""Block maps: construction, certificates, and operator scaling."""

import numpy as np
import pytest

from schurpos.forms import CurvatureTensor, random_griffiths_curvature
from schurpos.posmap import (BlockMap, NotStrictlyPositiveError, apply_map,
                             choi_fixture, from_curvature, from_kraus,
                             identity_map, normalization_residual,
                             positivity_certificate, random_kraus_map, scale,
                             sinkhorn_normalize, trace_map, trace_matrix,
                             transpose_map)


def random_unit(rng, r):
    z = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return z / np.linalg.norm(z)


class TestApply:
    def test_trace_map(self):
        h = trace_map(3)
        x = np.diag([1.5, 0.5, 0.0])
        assert np.allclose(apply_map(h, x), 2.0 * np.eye(3), atol=1e-15)

    def test_identity_map(self):
        h = identity_map(3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(apply_map(h, x) - x)) < 1e-15

    def test_kraus_rank_one(self):
        rng = np.random.default_rng(5)
        cs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
              for _ in range(2)]
        h = from_kraus(cs)
        xi = random_unit(rng, 3)
        want = sum(np.outer(c @ xi, (c @ xi).conj()) for c in cs)
        got = apply_map(h, np.outer(xi, xi.conj()))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(trace_map(3), np.eye(2))


class TestFromKraus:
    def test_single_identity_kraus(self):
        h = from_kraus([np.eye(3)])
        assert np.max(np.abs(h.blocks - identity_map(3).blocks)) == 0.0

    def test_blocks_match_direct_formula(self):
        rng = np.random.default_rng(7)
        cs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(3)]
        h = from_kraus(cs)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                want = sum(c @ e @ c.conj().T for c in cs)
                assert np.max(np.abs(h.block(i, j) - want)) < 1e-14

    def test_eps_floor_in_certificate(self):
        h = random_kraus_map(3, 2, eps=0.3, seed=11)
        min_eig, _ = positivity_certificate(h, grid=300, seed=1)
        assert min_eig >= 0.3 - 1e-10

    def test_symmetry_by_construction(self):
        h = random_kraus_map(4, 3, eps=0.1, seed=13)
        assert h.symmetry_defect() < 1e-14

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            from_kraus([])


class TestCertificate:
    def test_trace_map(self):
        min_eig, xi = positivity_certificate(trace_map(3), grid=50, seed=0)
        assert abs(min_eig - 1.0) < 1e-12
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-12

    def test_identity_map_boundary(self):
        min_eig, _ = positivity_certificate(identity_map(3), grid=100, seed=0)
        assert abs(min_eig) < 1e-12  # rank-one outputs: exact zero up to noise

    def test_finds_negative_witness(self):
        # genuinely indefinite map: trace map minus a large rank-one pinch
        blocks = trace_map(2).blocks.copy()
        blocks[0, 0] -= np.diag([1.8, 0.0])
        h = BlockMap(blocks)
        min_eig, xi = positivity_certificate(h, grid=200, seed=0)
        assert min_eig < -0.5
        mat = apply_map(h, np.outer(xi, xi.conj()))
        assert np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -0.5


class TestChoiFixture:
    def test_structure(self):
        h = choi_fixture()
        assert h.symmetry_defect() == 0.0
        diag_sum = sum(h.block(i, i) for i in range(3))
        assert np.array_equal(diag_sum, 2.0 * np.eye(3))
        t = trace_matrix(h)
        assert np.array_equal(t, 2.0 * np.eye(3))

    def test_returns_fresh_copy(self):
        choi_fixture().blocks[:] = 0.0
        assert np.array_equal(trace_matrix(choi_fixture()), 2.0 * np.eye(3))

    def test_certificate_documented_thresholds(self):
        h = choi_fixture()
        # Grid phase stays strictly positive: the zero locus of the map's
        # output spectrum is a measure-zero torus the grid never hits.
        grid_min, _ = positivity_certificate(h, grid=100_000, seed=12345,
                                             refine=False)
        assert grid_min > 0.0
        # Local refinement walks to the boundary: zero up to eigensolver noise.
        refined_min, _ = positivity_certificate(h, grid=2_000, seed=12345)
        assert abs(refined_min) < 1e-12

    def test_corrupted_fixture_is_detected(self):
        blocks = choi_fixture().blocks.copy()
        blocks[0, 0] = -blocks[0, 0]  # flip a diagonal block: clearly indefinite
        bad = BlockMap(blocks)
        min_eig, _ = positivity_certificate(bad, grid=500, seed=0)
        assert min_eig < -0.5

    def test_scaled_fixture_is_doubly_stochastic(self):
        h = choi_fixture()
        scaled = BlockMap(1.5 * h.blocks)
        assert normalization_residual(scaled) < 1e-14


class TestFromCurvature:
    def test_zero_tensor(self):
        t = CurvatureTensor(rank=3, dim=3, entries=np.zeros((3, 3, 3, 3)))
        h = from_curvature(t)
        assert np.max(np.abs(h.blocks)) == 0.0

    def test_roundtrip_entries(self):
        t = random_griffiths_curvature(3, 3, 2, 0.1, seed=17)
        h = from_curvature(t)
        assert np.array_equal(h.blocks, t.entries)

    def test_griffiths_instance_passes_certificate(self):
        t = random_griffiths_curvature(3, 3, 2, eps=0.25, seed=19)
        h = from_curvature(t)
        min_eig, _ = positivity_certificate(h, grid=300, seed=2)
        assert min_eig >= 0.25 - 1e-10


class TestScale:
    def test_identity_scaling(self):
        h = random_kraus_map(3, 2, 0.1, seed=23)
        out = scale(h, np.eye(3), np.eye(3))
        assert np.max(np.abs(out.blocks - h.blocks)) == 0.0

    def test_scalar_congruence(self):
        h = trace_map(3)
        out = scale(h, 2.0 * np.eye(3), np.eye(3))
        assert np.max(np.abs(out.blocks - 4.0 * h.blocks)) < 1e-14

    def test_defining_identity(self):
        rng = np.random.default_rng(29)
        h = random_kraus_map(3, 3, 0.2, seed=31)
        c1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = scale(h, c1, c2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        want = c1 @ apply_map(h, c2.conj().T @ x @ c2) @ c1.conj().T
        assert np.max(np.abs(apply_map(s, x) - want)) < 1e-11

    def test_composition_rule(self):
        # the defining identity forces S_{C1,C2} o S_{D1,D2} = S_{C1 D1, C2 D2}
        rng = np.random.default_rng(37)
        h = random_kraus_map(2, 2, 0.2, seed=41)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        c1, c2, d1, d2 = mats
        lhs = scale(scale(h, d1, d2), c1, c2)
        rhs = scale(h, c1 @ d1, c2 @ d2)
        assert np.max(np.abs(lhs.blocks - rhs.blocks)) < 1e-10

    def test_preserves_symmetry_and_positivity(self):
        rng = np.random.default_rng(43)
        h = random_kraus_map(3, 3, 0.3, seed=47)
        c1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = scale(h, c1, c2)
        assert s.symmetry_defect() < 1e-10
        min_eig, _ = positivity_certificate(s, grid=200, seed=3)
        assert min_eig > 0.0

    def test_rejects_singular(self):
        h = trace_map(2)
        with pytest.raises(ValueError):
            scale(h, np.zeros((2, 2)), np.eye(2))


class TestSinkhorn:
    def test_trace_map_is_fixed_point(self):
        res = sinkhorn_normalize(trace_map(3), tol=1e-10, max_iter=50)
        assert res.converged
        assert res.iterations <= 1
        assert res.residual < 1e-14

    def test_identity_map_fails_precondition(self):
        with pytest.raises(NotStrictlyPositiveError):
            sinkhorn_normalize(identity_map(3))

    @pytest.mark.parametrize("r,seed", [(2, 53), (3, 59), (4, 61)])
    def test_random_kraus_normalizes(self, r, seed):
        h = random_kraus_map(r, 3, 0.2, seed=seed)
        res = sinkhorn_normalize(h, tol=1e-10, max_iter=500)
        assert res.converged
        scaled = res.scaled
        eye = r * np.eye(r)
        left = np.einsum("iiab->ab", scaled.blocks)
        assert np.linalg.norm(left - eye) < 1e-10
        assert np.linalg.norm(trace_matrix(scaled) - eye) < 1e-10
        assert scaled.symmetry_defect() < 1e-10

    def test_cumulative_scalings_reproduce_result(self):
        h = random_kraus_map(3, 3, 0.2, seed=67)
        res = sinkhorn_normalize(h, tol=1e-10, max_iter=500, check_positive=False)
        redo = scale(h, res.c1, res.c2)
        assert np.max(np.abs(redo.blocks - res.scaled.blocks)) < 1e-9

    def test_c_trace_normalization_pointwise(self):
        h = random_kraus_map(3, 2, 0.25, seed=71)
        res = sinkhorn_normalize(h, tol=1e-10, max_iter=500, check_positive=False)
        rng = np.random.default_rng(73)
        for _ in range(25):
            xi = random_unit(rng, 3)
            c = np.einsum("a,ijab,b->ij", xi.conj(), res.scaled.blocks, xi)
            assert abs(np.trace(c).real - 3.0) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_normalize(trace_map(3, 4))


def test_transpose_map_blocks():
    h = transpose_map(3)
    assert h.block(0, 1)[1, 0] == 1.0
    assert h.symmetry_defect() == 0.0


@pytest.mark.parametrize("shape", [(0, 0, 0, 0), (0, 0, 2, 2), (2, 2, 0, 0)])
def test_block_map_rejects_empty_sizes(shape):
    with pytest.raises(ValueError, match=r"r, w >= 1"):
        BlockMap(np.zeros(shape))


def test_random_kraus_map_rejects_zero_rank():
    with pytest.raises(ValueError, match="at least 1"):
        random_kraus_map(0, 3, 0.1, seed=0)
