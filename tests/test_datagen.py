import math

import numpy as np
import pytest

from iprox.bench import generate
from iprox.datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank


class TestGroupedRegression:
    def test_deterministic_across_calls(self):
        a, xa = gen_grouped_regression(50, 12, 4, outlier_frac=0.1, noise_sd=0.05, seed=9)
        b, xb = gen_grouped_regression(50, 12, 4, outlier_frac=0.1, noise_sd=0.05, seed=9)
        np.testing.assert_array_equal(a.design, b.design)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(xa, xb)

    def test_seed_changes_data(self):
        a, _ = gen_grouped_regression(50, 12, 4, seed=0)
        b, _ = gen_grouped_regression(50, 12, 4, seed=1)
        assert not np.array_equal(a.design, b.design)

    def test_noiseless_targets_are_exact(self):
        data, x_true = gen_grouped_regression(40, 10, 5, outlier_frac=0.0, noise_sd=0.0, seed=2)
        np.testing.assert_array_equal(data.targets, data.design @ x_true)

    def test_alternating_group_structure(self):
        _, x_true = gen_grouped_regression(30, 12, 4, seed=3)
        blocks = np.array_split(np.arange(12), 4)
        for i, block in enumerate(blocks):
            segment = x_true[block]
            # within a block the coefficient is shared
            assert np.all(segment == segment[0])
            if i % 2 == 0:
                assert 0.5 <= abs(segment[0]) <= 2.0
            else:
                assert segment[0] == 0.0

    def test_outliers_count_and_magnitude(self):
        clean, _ = gen_grouped_regression(100, 10, 3, outlier_frac=0.0, noise_sd=0.0, seed=4)
        dirty, _ = gen_grouped_regression(100, 10, 3, outlier_frac=0.1, noise_sd=0.0, seed=4)
        shifted = dirty.targets - clean.targets
        moved = np.nonzero(shifted)[0]
        assert len(moved) == 10
        bump = 10.0 * np.max(np.abs(clean.targets))
        np.testing.assert_allclose(shifted[moved], bump)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_grouped_regression(0, 5, 2)
        with pytest.raises(ValueError):
            gen_grouped_regression(10, 5, 6)
        with pytest.raises(ValueError):
            gen_grouped_regression(10, 5, 2, outlier_frac=1.0)
        with pytest.raises(ValueError):
            gen_grouped_regression(10, 5, 2, noise_sd=-0.1)


class TestSignedLowrank:
    def test_deterministic(self):
        a, za = gen_signed_lowrank(20, 3, 0.5, seed=5)
        b, zb = gen_signed_lowrank(20, 3, 0.5, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(za, zb)

    def test_signs_match_truth_and_margin_holds(self):
        obs, z = gen_signed_lowrank(25, 2, 0.4, margin=0.5, seed=6)
        sampled = z[obs.rows, obs.cols]
        np.testing.assert_array_equal(obs.signs, np.where(sampled > 0, 1.0, -1.0))
        assert np.min(np.abs(sampled)) >= 0.5 - 1e-12

    def test_truth_has_requested_rank(self):
        _, z = gen_signed_lowrank(15, 3, 0.6, seed=7)
        assert np.linalg.matrix_rank(z) == 3

    def test_full_observation_covers_every_entry(self):
        obs, _ = gen_signed_lowrank(8, 2, 1.0, seed=8)
        assert len(obs.rows) == 64
        flat = set(zip(obs.rows.tolist(), obs.cols.tolist()))
        assert len(flat) == 64

    def test_observation_count(self):
        obs, _ = gen_signed_lowrank(20, 2, 0.3, seed=9)
        assert len(obs.rows) == round(0.3 * 400)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_signed_lowrank(0, 1, 0.5)
        with pytest.raises(ValueError):
            gen_signed_lowrank(10, 11, 0.5)
        with pytest.raises(ValueError):
            gen_signed_lowrank(10, 2, 0.0)
        with pytest.raises(ValueError):
            gen_signed_lowrank(10, 2, 1.5)
        with pytest.raises(ValueError):
            gen_signed_lowrank(10, 2, 0.5, margin=0.0)

    @pytest.mark.parametrize("rank", [2.5, 2.0, np.float64(3.0), "2"])
    def test_non_integral_rank_rejected(self, rank):
        # the rule of linalg.check_rank; numpy used to raise TypeError past the range check
        with pytest.raises(ValueError, match="rank"):
            gen_signed_lowrank(10, rank, 0.5)
        with pytest.raises(ValueError, match="rank"):
            generate("link_prediction", params={"true_rank": rank})

    def test_numpy_integer_rank_accepted(self):
        a, za = gen_signed_lowrank(12, np.int64(2), 0.5, seed=3)
        b, zb = gen_signed_lowrank(12, 2, 0.5, seed=3)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(a.signs, b.signs)


@pytest.mark.parametrize(
    "application, params",
    [
        ("robust_oscar", {"n": 60.0}),
        ("robust_oscar", {"d": 12.0}),
        ("robust_oscar", {"n_groups": 2.5}),
        ("lasso_baseline", {"n": 60.0}),
        ("lasso_baseline", {"d": 12.0}),
        ("robust_tracelasso", {"sparsity": 2.5}),
        ("link_prediction", {"n_users": 10.0}),
    ],
    ids=["oscar-n", "oscar-d", "oscar-groups", "lasso-n", "lasso-d", "tracelasso-sparsity", "users"],
)
def test_non_integral_sizes_rejected(application, params):
    # the rule of linalg.check_rank; numpy or range used to raise TypeError
    with pytest.raises(ValueError, match="integer"):
        generate(application, params=params)


@pytest.mark.parametrize(
    "application, params, name",
    [
        ("robust_oscar", {"noise_sd": math.nan}, "noise_sd"),
        ("robust_oscar", {"noise_sd": math.inf}, "noise_sd"),
        ("lasso_baseline", {"noise_sd": math.nan}, "noise_sd"),
        ("lasso_baseline", {"noise_sd": math.inf}, "noise_sd"),
        ("link_prediction", {"margin": math.nan}, "margin"),
        ("link_prediction", {"margin": math.inf}, "margin"),
    ],
    ids=["oscar-noise-nan", "oscar-noise-inf", "lasso-noise-nan", "lasso-noise-inf", "margin-nan", "margin-inf"],
)
def test_non_finite_floats_rejected(application, params, name):
    # nan noise used to read as no noise, and an inf margin scaled the truth to inf
    with pytest.raises(ValueError, match=f"{name} must be .* finite"):
        generate(application, params=params)


@pytest.mark.parametrize(
    "generate_with_seed",
    [
        lambda seed: gen_grouped_regression(10, 4, 2, seed=seed),
        lambda seed: gen_signed_lowrank(10, 2, 0.5, seed=seed),
        lambda seed: gen_correlated_design(10, 4, 0.5, 2, seed=seed),
    ],
    ids=["grouped", "lowrank", "correlated"],
)
@pytest.mark.parametrize("seed", [-1, 2.5])
def test_bad_seed_rejected_naming_it(generate_with_seed, seed):
    # SolverConfig's rule; numpy used to raise without naming the seed, or a TypeError
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
        generate_with_seed(seed)


def test_numpy_integer_seed_accepted():
    a, _ = gen_grouped_regression(10, 4, 2, seed=np.int64(3))
    b, _ = gen_grouped_regression(10, 4, 2, seed=3)
    np.testing.assert_array_equal(a.design, b.design)


class TestCorrelatedDesign:
    def test_deterministic(self):
        a, xa = gen_correlated_design(60, 10, 0.5, 3, seed=10)
        b, xb = gen_correlated_design(60, 10, 0.5, 3, seed=10)
        np.testing.assert_array_equal(a.design, b.design)
        np.testing.assert_array_equal(xa, xb)

    def test_columns_unit_norm(self):
        data, _ = gen_correlated_design(80, 15, 0.7, 4, seed=11)
        np.testing.assert_allclose(np.linalg.norm(data.design, axis=0), 1.0, atol=1e-12)

    def test_sparsity_level(self):
        _, x_true = gen_correlated_design(40, 20, 0.3, 6, seed=12)
        assert np.count_nonzero(x_true) == 6

    def test_zero_correlation_gives_near_orthogonal_columns(self):
        data, _ = gen_correlated_design(1000, 8, 0.0, 2, seed=13)
        gram = data.design.T @ data.design
        off_diag = gram[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.2

    def test_high_correlation_gives_correlated_columns(self):
        data, _ = gen_correlated_design(1000, 8, 0.9, 2, seed=14)
        gram = data.design.T @ data.design
        off_diag = gram[~np.eye(8, dtype=bool)]
        assert np.mean(off_diag) > 0.8

    def test_noiseless_exactness(self):
        data, x_true = gen_correlated_design(30, 10, 0.5, 3, noise_sd=0.0, seed=15)
        np.testing.assert_array_equal(data.targets, data.design @ x_true)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_correlated_design(10, 5, 1.0, 2)
        with pytest.raises(ValueError):
            gen_correlated_design(10, 5, -0.1, 2)
        with pytest.raises(ValueError):
            gen_correlated_design(10, 5, 0.5, 6)
