"""Block maps: construction, certificates, and operator scaling."""

import numpy as np
import pytest

from schurpos.discriminants import sample_unit_sphere
from schurpos.forms import CurvatureTensor, random_griffiths_curvature
from schurpos.phi import phi_direct
from schurpos.posmap import (BlockMap, NotStrictlyPositiveError, _grid_minimum,
                             apply_map, choi_fixture, from_kraus, identity_map,
                             normalization_residual, positivity_certificate,
                             random_kraus_map, scale, sinkhorn_normalize,
                             trace_map, transpose_map)


def random_unit(rng, r):
    z = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return z / np.linalg.norm(z)


def min_output_eig(h, xi):
    mat = apply_map(h, np.outer(xi, xi.conj()))
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]


def sequential_certificate(h, grid, seed, refine=True):
    """The earlier certificate: a sample-at-a-time grid loop, then up to 50
    rounds of coordinate descent that try the 4r moves one by one."""
    rng = np.random.default_rng(seed)
    best_val, best_xi, remaining = np.inf, None, grid
    while remaining > 0:
        count = min(remaining, 1 << 14)
        xis = sample_unit_sphere(rng, count, h.r)
        outer = np.einsum("si,sj->sij", xis, xis.conj())
        mats = np.einsum("sij,ijab->sab", outer, h.blocks)
        eigs = np.linalg.eigvalsh((mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2.0)[:, 0]
        k = int(np.argmin(eigs))
        if eigs[k] < best_val:
            best_val, best_xi = float(eigs[k]), xis[k].copy()
        remaining -= count
    if refine:
        step = 0.5
        for _ in range(50):
            improved = False
            for c in range(h.r):
                for delta in (step, -step, 1j * step, -1j * step):
                    cand = best_xi.copy()
                    cand[c] += delta
                    cand /= np.linalg.norm(cand)
                    val = float(min_output_eig(h, cand))
                    if val < best_val:
                        best_val, best_xi = val, cand
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-12:
                    break
    return best_val, best_xi


def trace_matrix(blocks):
    return np.einsum("ijaa->ij", blocks)


def choi_mixture(seed):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.2, 0.9))
    kraus = random_kraus_map(3, 3, 0.2, seed=1000 + seed)
    return BlockMap(t * choi_fixture().blocks + (1.0 - t) * kraus.blocks)


def cho_kye_lee(a, b, c):
    """Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X: positive iff a >= 1, a + b + c >= 3 and
    (a <= 2 => bc >= (2 - a)^2)."""
    coeffs = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    e = np.eye(3)
    return BlockMap(np.einsum("ij,ai,ab->ijab", e, coeffs, e)
                    - np.einsum("ia,jb->ijab", e, e))


def asymmetric_kraus_map():
    """A Kraus map with B_01 += 0.3 I: symmetry defect 0.3, marginal untouched."""
    blocks = random_kraus_map(3, 3, 0.2, seed=1).blocks.copy()
    blocks[0, 1] += 0.3 * np.eye(3)
    return BlockMap(blocks)


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

    def test_rejects_block_asymmetric_map(self):
        with pytest.raises(ValueError, match="block symmetry defect"):
            positivity_certificate(asymmetric_kraus_map(), grid=50, seed=0)

    @pytest.mark.parametrize("grid", [float("nan"), 2.5])
    def test_rejects_non_integer_grid(self, grid):
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            positivity_certificate(trace_map(3), grid=grid, seed=0)


class TestChoKyeLee:
    def test_negative_control(self):
        h = cho_kye_lee(1.5, 0.5, 0.5)
        val, xi = positivity_certificate(h, grid=256, seed=0)
        assert abs(val + 1.0 / 6.0) < 1e-12
        assert abs(min_output_eig(h, xi) - val) < 1e-14

    @pytest.mark.parametrize("abc", [(1.0, 1.0, 1.0), (3.0, 0.0, 0.0)])
    def test_boundary_zeros(self, abc):
        val, _ = positivity_certificate(cho_kye_lee(*abc), grid=256, seed=0)
        assert abs(val) < 1e-12


class TestBatchedRefinement:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_sequential_descent_on_kraus_maps(self, r):
        for seed in range(10):
            h = random_kraus_map(r, 3, 0.2, seed=seed)
            got, _ = positivity_certificate(h, grid=256, seed=seed)
            want, _ = sequential_certificate(h, grid=256, seed=seed)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_never_worse_than_coordinate_descent_on_choi_mixtures(self, seed):
        h = choi_mixture(seed)
        got, _ = positivity_certificate(h, grid=256, seed=seed)
        want, _ = sequential_certificate(h, grid=256, seed=seed)
        assert got <= want + 1e-12

    @pytest.mark.parametrize("make", [lambda s: random_kraus_map(3, 3, 0.2, seed=s),
                                      choi_mixture, lambda s: choi_fixture()],
                             ids=["kraus", "choi_mixture", "choi"])
    def test_never_above_grid_minimum(self, make):
        for seed in range(10):
            h = make(seed)
            refined, _ = positivity_certificate(h, grid=256, seed=seed)
            grid_min, _ = _grid_minimum(h, grid=256, seed=seed)
            assert refined <= grid_min

    @pytest.mark.parametrize("seed", range(5))
    def test_witness_attains_value(self, seed):
        for h in (random_kraus_map(3, 3, 0.2, seed=seed), choi_mixture(seed)):
            val, xi = positivity_certificate(h, grid=256, seed=seed)
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-14
            assert abs(min_output_eig(h, xi) - val) < 1e-14

    @pytest.mark.parametrize("grid", [1, 300, 40_000])
    def test_grid_phase_is_the_sequential_loop(self, grid):
        # 40_000 spans three chunks of 2^14 samples
        for h in (random_kraus_map(3, 3, 0.2, seed=7), choi_fixture()):
            got_val, got_xi = _grid_minimum(h, grid=grid, seed=11)
            want_val, want_xi = sequential_certificate(h, grid=grid, seed=11, refine=False)
            assert got_val == want_val
            assert np.array_equal(got_xi, want_xi)


class TestChoiFixture:
    def test_structure(self):
        h = choi_fixture()
        assert h.symmetry_defect() == 0.0
        diag_sum = sum(h.block(i, i) for i in range(3))
        assert np.array_equal(diag_sum, 2.0 * np.eye(3))
        t = trace_matrix(h.blocks)
        assert np.array_equal(t, 2.0 * np.eye(3))

    def test_is_cho_kye_lee_2_1_0(self):
        assert np.array_equal(choi_fixture().blocks, cho_kye_lee(2, 1, 0).blocks)

    def test_returns_fresh_copy(self):
        choi_fixture().blocks[:] = 0.0
        assert np.array_equal(trace_matrix(choi_fixture().blocks), 2.0 * np.eye(3))

    def test_certificate_documented_thresholds(self):
        h = choi_fixture()
        # Grid phase stays strictly positive: the zero locus of the map's
        # output spectrum is a measure-zero torus the grid never hits.
        grid_min, _ = _grid_minimum(h, grid=100_000, seed=12345)
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


class TestCurvatureTensorIsBlockMap:
    def test_griffiths_tensor_goes_straight_in(self):
        # no conversion: the tensor is the block map B_ij[a, b] = R[i, j, a, b]
        t = random_griffiths_curvature(3, 3, 2, eps=0.25, seed=19)
        assert isinstance(t, BlockMap) and t.blocks is t.entries
        assert (t.r, t.w) == (t.rank, t.dim) == (3, 3)
        min_eig, _ = positivity_certificate(t, grid=300, seed=2)
        assert min_eig >= 0.25 - 1e-10
        phi = phi_direct(t).value
        assert phi > 0.0
        res = sinkhorn_normalize(t)
        assert res.converged and res.scaled.symmetry_defect() < 1e-12
        # scaling multiplies Phi by |det C1|^2 |det C2|^2
        want = abs(np.linalg.det(res.c1) * np.linalg.det(res.c2)) ** 2 * phi
        assert abs(phi_direct(res.scaled).value - want) < 1e-9 * want


@pytest.mark.parametrize("defect,ok", [(1e-13, True), (1e-11, False)])
def test_block_maps_and_curvature_share_one_symmetry_tolerance(defect, ok):
    # BLOCK_SYMMETRY_TOL = 1e-12 relative to the largest entry, for both
    blocks = 1e5 * random_griffiths_curvature(3, 3, 2, 0.2, seed=70).entries
    blocks[0, 1, 0, 1] += defect * np.max(np.abs(blocks))
    for build in (lambda: BlockMap(blocks).require_symmetry(),
                  lambda: CurvatureTensor(rank=3, dim=3, entries=blocks)):
        if ok:
            build()
        else:
            with pytest.raises(ValueError, match="block symmetry defect"):
                build()


class TestScale:
    def test_identity_scaling(self):
        h = random_kraus_map(3, 2, 0.1, seed=23)
        out = scale(h, np.eye(3), np.eye(3))
        assert np.max(np.abs(out.blocks - h.blocks)) == 0.0

    def test_scalar_congruence(self):
        h = trace_map(3)
        out = scale(h, 2.0 * np.eye(3), np.eye(3))
        assert np.max(np.abs(out.blocks - 4.0 * h.blocks)) < 1e-14

    @pytest.mark.parametrize("r,w", [(3, 3), (2, 3), (3, 2)])
    def test_defining_identity(self, r, w):
        rng = np.random.default_rng(29)
        if r == w:
            h = random_kraus_map(3, 3, 0.2, seed=31)
        else:
            h = from_kraus([rng.standard_normal((w, r)) + 1j * rng.standard_normal((w, r))
                            for _ in range(3)], eps=0.2)
        assert (h.r, h.w) == (r, w)
        c1 = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
        c2 = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        s = scale(h, c1, c2)
        x = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
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

    @pytest.mark.parametrize("c", [1.0, 1e-13, 1e3])
    def test_boundary_maps_fail_precondition_at_any_scale(self, c):
        for h in (identity_map(3), choi_fixture()):
            with pytest.raises(NotStrictlyPositiveError):
                sinkhorn_normalize(BlockMap(c * h.blocks))

    @pytest.mark.parametrize("c", [1e-13, 1e-16])
    def test_tiny_multiples_normalize_alike(self, c):
        h = random_kraus_map(3, 3, 0.2, seed=1)
        want = sinkhorn_normalize(h)
        got = sinkhorn_normalize(BlockMap(c * h.blocks))
        assert got.converged
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.scaled.blocks - want.scaled.blocks)) < 1e-12

    def test_ill_conditioned_output_side_is_absorbed(self):
        # C H C* normalizes like H even for cond(C) ~ 1e4, whose first step
        # loses block symmetry to roundoff unless every step restores it
        h = random_kraus_map(3, 2, 1e-2, seed=0)
        rng = np.random.default_rng(0)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        want = sinkhorn_normalize(h)
        got = sinkhorn_normalize(scale(h, c @ np.diag([1e-2, 1.0, 1e2]), np.eye(3)))
        assert got.converged and got.iterations == want.iterations
        assert got.scaled.symmetry_defect() == 0.0
        # the normal form is unique up to unitary congruence, which fixes Phi;
        # cond(C)^2 ~ 1e8 costs about eight digits of it
        phi = phi_direct(want.scaled).value
        assert abs(phi_direct(got.scaled).value - phi) < 1e-6 * phi

    @pytest.mark.parametrize("r,seed", [(2, 53), (3, 59), (4, 61)])
    def test_random_kraus_normalizes(self, r, seed):
        h = random_kraus_map(r, 3, 0.2, seed=seed)
        res = sinkhorn_normalize(h, tol=1e-10, max_iter=500)
        assert res.converged
        scaled = res.scaled
        eye = r * np.eye(r)
        left = np.einsum("iiab->ab", scaled.blocks)
        assert np.linalg.norm(left - eye) < 1e-10
        assert np.linalg.norm(trace_matrix(scaled.blocks) - eye) < 1e-10
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

    @pytest.mark.parametrize("check_positive", [True, False])
    def test_rejects_block_asymmetric_map(self, check_positive):
        # the loop re-symmetrizes every step, which would silently replace
        # the input by its symmetric part
        with pytest.raises(ValueError, match="block symmetry defect"):
            sinkhorn_normalize(asymmetric_kraus_map(), check_positive=check_positive)

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            sinkhorn_normalize(trace_map(3), max_iter=-1)

    def test_infinite_tol_rejected(self):
        # residual < inf would hold vacuously and report convergence
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sinkhorn_normalize(random_kraus_map(3, 3, 0.2, seed=0), tol=np.inf)


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


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
def test_block_symmetry_check_is_relative(c):
    blocks = c * random_kraus_map(3, 3, 0.2, seed=5).blocks
    wobble = blocks.copy()
    wobble[0, 1, 0, 1] *= 1 + 1e-13
    assert BlockMap(wobble).require_symmetry().r == 3
    bad = blocks.copy()
    bad[0, 1, 0, 1] += 1e-3 * c
    with pytest.raises(ValueError, match="block symmetry defect"):
        BlockMap(bad).require_symmetry()
