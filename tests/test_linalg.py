import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iprox.linalg import spectral_norm_sq, truncated_svd_exact


def random_rank_r(rng, n, m, r, scale=1.0):
    """Independent construction of a rank-r matrix from raw factors."""
    return scale * (rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))


class TestExactSvd:
    """truncated_svd_exact returns the rank-r truncation U_r diag(s_r) V_r^T."""

    def test_identity_rank_one(self):
        t = truncated_svd_exact(np.eye(3), 1)
        # a rank-one orthogonal projector onto one standard basis vector
        np.testing.assert_allclose(t @ t, t, atol=1e-12)
        assert abs(np.trace(t) - 1.0) < 1e-12
        assert abs(np.max(np.abs(t)) - 1.0) < 1e-12

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t = truncated_svd_exact(np.outer(u, v), 1)
        assert np.linalg.norm(t - np.outer(u, v)) < 1e-8

    def test_diagonal_truncation(self):
        t = truncated_svd_exact(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(t, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd_exact(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd_exact(np.eye(3), 0)

    def test_non_finite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            truncated_svd_exact(a, 1)

    def test_eckart_young_spot_checks(self):
        # The truncation must beat randomly drawn rank-r competitors in
        # Frobenius error on every sampled instance.
        rng = np.random.default_rng(202)
        for _ in range(10):
            n, m = rng.integers(2, 9, size=2)
            r = int(rng.integers(1, min(n, m) + 1))
            a = rng.standard_normal((n, m))
            best = np.linalg.norm(a - truncated_svd_exact(a, r))
            for _ in range(20):
                rival = random_rank_r(rng, n, m, r)
                assert best <= np.linalg.norm(a - rival) + 1e-12

    def test_factor_invariants(self):
        # the truncation's singular values are a's r largest, and the
        # residual is orthogonal to it from both sides
        rng = np.random.default_rng(5)
        for a in (rng.standard_normal((7, 4)), rng.standard_normal((4, 7))):
            t = truncated_svd_exact(a, 3)
            s = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(np.linalg.svd(t, compute_uv=False)[:3], s[:3], atol=1e-10)
            assert np.linalg.matrix_rank(t, tol=1e-8) == 3
            np.testing.assert_allclose(t.T @ (a - t), 0.0, atol=1e-10)
            np.testing.assert_allclose(t @ (a - t).T, 0.0, atol=1e-10)


class TestSpectralNormSq:
    def test_identity(self):
        assert abs(spectral_norm_sq(np.eye(4)) - 1.0) < 1e-9

    def test_diagonal(self):
        assert abs(spectral_norm_sq(np.diag([2.0, 1.0])) - 4.0) < 1e-9

    def test_matches_exact_svd(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((10, 6))
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(spectral_norm_sq(a) - top**2) <= 1e-6 * top**2

    def test_near_degenerate_top_pair_not_underestimated(self):
        # sigma_2 = 1 - 1e-6 next to sigma_1 = 1: a power iteration stalls
        # below sigma_1^2 here, which would make 1/L too long a step
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((40, 10)))[0]
        v = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        s = np.concatenate(([1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, 8)))
        assert spectral_norm_sq((u * s) @ v.T) >= 1.0 - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 12, size=2)
        a = rng.standard_normal((n, m))
        ref = np.linalg.svd(a, compute_uv=False)[0] ** 2
        assert abs(spectral_norm_sq(a) - ref) <= 1e-6 * max(ref, 1e-12)
