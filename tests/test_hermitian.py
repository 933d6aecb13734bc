"""Core linear algebra against naive oracles."""

import itertools
import math

import numpy as np
import pytest

from schurpos.hermitian import as_matrix, det, ensure_hermitian, herm_eigvals
from schurpos.posmap import NotStrictlyPositiveError, _half_step


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def half_step_inverse(m):
    """C from ``posmap._half_step`` on the r = 1 block map B_00 = m, whose
    output marginal is m itself: the inverse square root of m."""
    return _half_step(np.asarray(m, dtype=complex)[None, None], "output")[1]


def leibniz_det(a):
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        prod = 1.0 + 0j
        for i in range(n):
            prod *= a[i, perm[i]]
        total += sign * prod
    return total


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert abs(det(np.diag([1.0, 2.0, 3.0])) - 6.0) < 1e-14

    def test_singular_returns_zero(self):
        assert det(np.zeros((3, 3))) == 0.0

    def test_against_leibniz(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, 4)
            want = leibniz_det(a)
            assert abs(det(a) - want) / abs(want) < 1e-12

    def test_multiplicativity(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5, 6):
            a, b = random_complex(rng, n), random_complex(rng, n)
            lhs = det(a @ b)
            rhs = det(a) * det(b)
            assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10


class TestEigvals:
    def test_identity(self):
        assert np.allclose(herm_eigvals(np.eye(3)), [1, 1, 1], atol=1e-14)

    def test_diagonal_reorder(self):
        assert np.allclose(herm_eigvals(np.diag([3.0, 1.0, 2.0])), [1, 2, 3],
                           atol=1e-14)

    def test_product_matches_det(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6):
            a = random_hermitian(rng, n)
            vals = herm_eigvals(a)
            d = det(a).real
            assert abs(np.prod(vals) - d) / max(abs(d), 1e-30) < 1e-9

    def test_trace_is_eigenvalue_sum(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 5):
            a = random_hermitian(rng, n)
            assert abs(np.trace(a).real - herm_eigvals(a).sum()) < 1e-10

    def test_recovers_known_spectrum(self):
        # unitary built from a chain of complex Givens rotations
        rng = np.random.default_rng(31)
        n = 5
        u = np.eye(n, dtype=complex)
        for p in range(n - 1):
            for q in range(p + 1, n):
                theta = rng.uniform(0, 2 * math.pi)
                phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
                g = np.eye(n, dtype=complex)
                g[p, p] = math.cos(theta) * phase
                g[p, q] = math.sin(theta) * phase
                g[q, p] = -math.sin(theta)
                g[q, q] = math.cos(theta)
                u = u @ g
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12
        diag = np.array([-2.0, -0.5, 0.0, 1.0, 4.0])
        a = u.conj().T @ np.diag(diag) @ u
        assert np.max(np.abs(herm_eigvals(a) - diag)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            herm_eigvals(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_symmetrizes_within_tolerance(self):
        a = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 2e-12j, 2.0]])
        vals = herm_eigvals(a)
        assert vals.shape == (2,)


class TestInvSqrt:
    """The inverse square root inside the Sinkhorn half-step and its
    singular-marginal rule."""

    def test_reconstructs_inverse(self):
        rng = np.random.default_rng(41)
        a = random_hermitian(rng, 4)
        spd = a @ a.conj().T + 0.5 * np.eye(4)
        s = half_step_inverse(spd)
        assert np.max(np.abs(s @ spd @ s - np.eye(4))) < 1e-11

    def test_rejects_singular(self):
        with pytest.raises(NotStrictlyPositiveError, match="output marginal is singular"):
            half_step_inverse(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("c", [1e-16, 1e-30])
    def test_floor_is_relative(self, c):
        rng = np.random.default_rng(43)
        a = random_hermitian(rng, 3)
        spd = c * (a @ a.conj().T + 0.5 * np.eye(3))
        s = half_step_inverse(spd)
        assert np.max(np.abs(s @ spd @ s - np.eye(3))) < 1e-11
        with pytest.raises(NotStrictlyPositiveError, match="output marginal is singular"):
            half_step_inverse(np.diag([c, 0.0]))

    @pytest.mark.parametrize("m", [np.zeros((2, 2)), -np.eye(2)])
    def test_rejects_non_positive_spectrum(self, m):
        with pytest.raises(NotStrictlyPositiveError, match="output marginal is singular"):
            half_step_inverse(m)

    @pytest.mark.parametrize("side", ["output", "input"])
    @pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
    def test_one_floor(self, c, side):
        # the marginal is singular below 1e-14 x its largest eigenvalue, at every scale
        m = c * np.diag([1.0, 0.5, 2e-14])
        s = _half_step(m.astype(complex)[None, None], side)[1]
        assert np.max(np.abs(s @ m @ s - np.eye(3))) < 1e-12
        for low in (5e-15, 0.0, -1e-3):
            with pytest.raises(NotStrictlyPositiveError, match=f"{side} marginal is singular"):
                _half_step((c * np.diag([1.0, 0.5, low])).astype(complex)[None, None], side)


def test_ensure_hermitian_rejects_large_defect():
    with pytest.raises(ValueError):
        ensure_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
def test_hermitian_check_is_relative(c):
    # roundoff-size asymmetry passes and a genuine defect fails at every scale
    rng = np.random.default_rng(43)
    a = random_hermitian(rng, 3)
    spd = c * (a @ a.conj().T + 0.5 * np.eye(3))
    s = half_step_inverse(spd)
    assert np.max(np.abs(s @ spd @ s - np.eye(3))) < 1e-11
    wobble = spd.copy()
    wobble[0, 1] *= 1 + 1e-13
    assert np.allclose(ensure_hermitian(wobble), spd, rtol=0, atol=1e-12 * c)
    with pytest.raises(ValueError, match="not Hermitian"):
        ensure_hermitian(c * np.array([[0.0, 1.0], [0.5, 0.0]]))
    skew = spd.copy()
    skew[0, 1] += 1e-6 * c
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eigvals(skew)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ensure_hermitian_is_bitwise_the_symmetrization(n):
    # moment_mc relies on exactly Hermitian factors: (a + a*)/2 bit for bit,
    # which m - (m - m*)/2 is not
    rng = np.random.default_rng(n)
    for _ in range(50):
        a = random_hermitian(rng, n) + 1e-13 * random_complex(rng, n)
        got = ensure_hermitian(a)
        assert np.array_equal(got, (a + a.conj().T) / 2)
        assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("bad, match", [
    (np.ones((2, 3)), "expected a square matrix"),
    (np.ones(3), "expected a square matrix"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite entries"),
    (np.array([[1.0, 0.0], [0.0, np.inf]]), "non-finite entries"),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), "non-finite entries"),
    (np.array([[1.0, 1j * np.inf], [0.0, 1.0]]), "non-finite entries"),
    (np.array([[0.0, 1.0], [0.5, 0.0]]), "not Hermitian: defect 5.000e-01"),
])
def test_ensure_hermitian_rejections_keep_their_messages(bad, match):
    # as_matrix shares the shape and finiteness checks, not the symmetry one
    with pytest.raises(ValueError, match=match):
        ensure_hermitian(bad)
    if "Hermitian" not in match:
        with pytest.raises(ValueError, match=match):
            as_matrix(bad)
