"""Core linear algebra against naive oracles."""

import itertools
import math

import numpy as np
import pytest

from schurpos.hermitian import (det, ensure_hermitian, herm_eig, herm_eigvals,
                                inv_sqrt_hermitian, is_positive_definite)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


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

    def test_eigenvectors_diagonalize(self):
        rng = np.random.default_rng(37)
        a = random_hermitian(rng, 4)
        vals, vecs = herm_eig(a)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(recon - a)) < 1e-12

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


class TestPositiveDefinite:
    def test_identity(self):
        ok, lo = is_positive_definite(np.eye(3))
        assert ok and abs(lo - 1.0) < 1e-14

    def test_semidefinite_boundary(self):
        ok, lo = is_positive_definite(np.diag([1.0, 0.0]))
        assert not ok and abs(lo) < 1e-14

    def test_indefinite(self):
        ok, lo = is_positive_definite(np.diag([2.0, -1.0]))
        assert not ok and abs(lo + 1.0) < 1e-14


class TestInvSqrt:
    def test_reconstructs_inverse(self):
        rng = np.random.default_rng(41)
        a = random_hermitian(rng, 4)
        spd = a @ a.conj().T + 0.5 * np.eye(4)
        s = inv_sqrt_hermitian(spd)
        assert np.max(np.abs(s @ spd @ s - np.eye(4))) < 1e-11

    def test_rejects_singular(self):
        with pytest.raises(RuntimeError):
            inv_sqrt_hermitian(np.diag([1.0, 0.0]))


def test_ensure_hermitian_rejects_large_defect():
    with pytest.raises(ValueError):
        ensure_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))
