"""Seeded synthetic instances for the three benchmark applications.

Every generator is a pure function of its arguments: the same seed always
produces bit-identical data. Ground truth is returned alongside each dataset
so recovery-quality checks can run without re-deriving it.
"""
from __future__ import annotations

import numpy as np

from .linalg import check_count, check_finite_nonneg, check_positive, check_rank, check_seed, is_int
from .losses import ObservedSignMatrix, RegressionDataset


def _corrupt_targets(targets, outlier_frac, rng):
    """Shift a seeded fraction of targets by +10 max|target|."""
    if not 0.0 <= outlier_frac < 1.0:
        raise ValueError("outlier_frac must lie in [0, 1)")
    n_out = int(round(outlier_frac * targets.shape[0]))
    if n_out == 0:
        return targets
    idx = rng.choice(targets.shape[0], size=n_out, replace=False)
    targets = targets.copy()
    targets[idx] += 10.0 * np.max(np.abs(targets))
    return targets


def gen_grouped_regression(n, d, n_groups, outlier_frac=0.0, noise_sd=0.0, seed=0):
    """Regression with a piecewise-constant coefficient vector.

    Features split into n_groups contiguous blocks; alternating blocks carry
    a shared nonzero coefficient, the rest are zero. A fraction of targets is
    corrupted upward to motivate bounded losses.
    """
    check_count(n, "n")
    check_count(d, "d")
    if not is_int(n_groups) or not 1 <= n_groups <= d:
        raise ValueError("n_groups must be an integer in [1, d]")
    check_finite_nonneg(noise_sd, "noise_sd")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, d))
    values = rng.uniform(0.5, 2.0, size=n_groups) * rng.choice((-1.0, 1.0), size=n_groups)
    x_true = np.zeros(d)
    for i, block in enumerate(np.array_split(np.arange(d), n_groups)):
        if i % 2 == 0:
            x_true[block] = values[i]
    targets = design @ x_true
    if noise_sd > 0:
        targets = targets + noise_sd * rng.standard_normal(n)
    targets = _corrupt_targets(targets, outlier_frac, rng)
    return RegressionDataset(design, targets), x_true


def gen_signed_lowrank(n_users, true_rank, obs_frac, margin=0.5, seed=0):
    """Sign observations of a random low-rank matrix on a uniform subset.

    The factor product is scaled up if needed so every sampled entry has
    magnitude at least margin, keeping the observed signs unambiguous.
    """
    check_count(n_users, "n_users")
    check_rank((n_users, n_users), true_rank)
    if not 0.0 < obs_frac <= 1.0:
        raise ValueError("obs_frac must lie in (0, 1]")
    check_positive(margin, "margin")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_users, true_rank))
    b = rng.standard_normal((n_users, true_rank))
    z = a @ b.T
    n_obs = max(1, int(round(obs_frac * n_users * n_users)))
    flat = rng.choice(n_users * n_users, size=n_obs, replace=False)
    rows, cols = np.divmod(flat, n_users)
    sampled = np.abs(z[rows, cols])
    smallest = float(np.min(sampled))
    if smallest == 0.0:
        raise ValueError(f"seed {seed} sampled an exactly-zero entry; pick another seed")
    if smallest < margin:
        z = z * (margin / smallest)
    signs = np.where(z[rows, cols] > 0, 1.0, -1.0)
    return ObservedSignMatrix(n_users, rows, cols, signs), z


def gen_correlated_design(n, d, correlation, sparsity, noise_sd=0.0, outlier_frac=0.0, seed=0):
    """Sparse regression over an equicorrelated, column-normalized design.

    Rows are drawn with pairwise feature correlation `correlation`, then each
    column is scaled to unit norm so the correlation structure, not column
    scale, drives the conditioning.
    """
    check_count(n, "n")
    check_count(d, "d")
    if not 0.0 <= correlation < 1.0:
        raise ValueError("correlation must lie in [0, 1)")
    if not is_int(sparsity) or not 0 <= sparsity <= d:
        raise ValueError("sparsity must be an integer in [0, d]")
    check_finite_nonneg(noise_sd, "noise_sd")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    common = rng.standard_normal(n)
    design = np.sqrt(correlation) * common[:, None] + np.sqrt(1.0 - correlation) * rng.standard_normal((n, d))
    design = design / np.linalg.norm(design, axis=0)
    x_true = np.zeros(d)
    if sparsity > 0:
        support = rng.choice(d, size=sparsity, replace=False)
        x_true[support] = rng.uniform(0.5, 2.0, size=sparsity) * rng.choice((-1.0, 1.0), size=sparsity)
    targets = design @ x_true
    if noise_sd > 0:
        targets = targets + noise_sd * rng.standard_normal(n)
    targets = _corrupt_targets(targets, outlier_frac, rng)
    return RegressionDataset(design, targets), x_true
