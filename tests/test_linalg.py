import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iprox.linalg import (
    SvdFactors,
    spectral_norm_sq,
    truncated_svd_exact,
    truncated_svd_power,
)


def random_rank_r(rng, n, m, r, scale=1.0):
    """Independent construction of a rank-r matrix from raw factors."""
    return scale * (rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))


class TestExactSvd:
    def test_identity_rank_one(self):
        f = truncated_svd_exact(np.eye(3), 1)
        assert f.s.shape == (1,)
        assert abs(f.s[0] - 1.0) < 1e-12
        # the factor column must be a standard basis vector up to sign convention
        assert abs(np.max(np.abs(f.u[:, 0])) - 1.0) < 1e-12

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        f = truncated_svd_exact(np.outer(u, v), 1)
        assert abs(f.s[0] - 1.0) < 1e-8
        err = min(np.linalg.norm(f.u[:, 0] - u), np.linalg.norm(f.u[:, 0] + u))
        assert err < 1e-8

    def test_diagonal_truncation(self):
        f = truncated_svd_exact(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(f.s, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

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
            best = np.linalg.norm(a - truncated_svd_exact(a, r).reconstruct())
            for _ in range(20):
                rival = random_rank_r(rng, n, m, r)
                assert best <= np.linalg.norm(a - rival) + 1e-12

    def test_factor_invariants(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 4))
        f = truncated_svd_exact(a, 3)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(3), atol=1e-8)
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)


class TestPowerSvd:
    def test_diagonal_top_singular_value(self):
        f = truncated_svd_power(np.diag([3.0, 2.0, 1.0]), 1, power_iters=50, seed=0)
        assert abs(f.s[0] - 3.0) <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((20, 12))
        f1 = truncated_svd_power(a, 3, power_iters=17, seed=9)
        f2 = truncated_svd_power(a, 3, power_iters=17, seed=9)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.v, f2.v)

    def test_noisy_low_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_rank_r(rng, 50, 50, 5) + 1e-6 * rng.standard_normal((50, 50))
        xp = truncated_svd_power(a, 5, power_iters=100, seed=1).reconstruct()
        xe = truncated_svd_exact(a, 5).reconstruct()
        assert np.linalg.norm(xp - xe) <= 1e-6

    def test_error_monotone_in_power_iters(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((30, 18))
        exact = truncated_svd_exact(a, 4).reconstruct()
        errs = [
            np.linalg.norm(truncated_svd_power(a, 4, power_iters=p, seed=3).reconstruct() - exact)
            for p in (1, 2, 4, 8, 16, 32)
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12

    def test_orthonormal_even_with_degenerate_input(self):
        a = np.zeros((6, 6))
        a[0, 0] = 2.0
        f = truncated_svd_power(a, 2, power_iters=5, seed=0)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(2), atol=1e-8)


class TestSpectralNormSq:
    def test_identity(self):
        assert abs(spectral_norm_sq(np.eye(4)) - 1.0) < 1e-9

    def test_diagonal(self):
        assert abs(spectral_norm_sq(np.diag([2.0, 1.0])) - 4.0) < 1e-9

    def test_matches_exact_svd(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((10, 6))
        top = truncated_svd_exact(a, 1).s[0]
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


def test_svdfactors_rejects_bad_factors():
    with pytest.raises(ValueError):
        SvdFactors(np.ones((3, 2)), np.array([1.0, 0.5]), np.eye(2))
    with pytest.raises(ValueError):
        SvdFactors(np.eye(3)[:, :2], np.array([0.5, 1.0]), np.eye(2))
