"""Smooth data-fit terms. Each loss exposes eval(x) -> (value, gradient) and a
global Lipschitz bound on the gradient via lipschitz()."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import as_matrix, as_vector, is_int, spectral_norm_sq


@dataclass(eq=False)
class RegressionDataset:
    design: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.design = as_matrix(self.design, "design")
        self.targets = as_vector(self.targets, "targets")
        if self.design.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"design has {self.design.shape[0]} rows but targets has "
                f"{self.targets.shape[0]} entries"
            )

    @property
    def n_samples(self):
        return self.design.shape[0]

    @property
    def n_features(self):
        return self.design.shape[1]


@dataclass(eq=False)
class ObservedSignMatrix:
    """Partially observed +/-1 entries of an n_users x n_users matrix."""

    n_users: int
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.signs.shape) or self.rows.ndim != 1:
            raise ValueError("rows, cols and signs must be 1-d arrays of equal length")
        if not is_int(self.n_users) or self.n_users < 1:
            raise ValueError(f"n_users must be a positive integer, got {self.n_users!r}")
        for idx, name in ((self.rows, "rows"), (self.cols, "cols")):
            if np.any(idx < 0) or np.any(idx >= self.n_users):
                raise ValueError(f"{name} contains out-of-range indices")
        if not np.all(np.isin(self.signs, (-1.0, 1.0))):
            raise ValueError("signs must be +1 or -1")
        flat = np.sort(self.rows * self.n_users + self.cols)
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("duplicate (row, col) observation")

    @property
    def n_observed(self):
        return self.rows.size


def _check_dim(x, expected, name="x"):
    if x.shape[0] != expected:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {expected}")


@dataclass(eq=False)
class CorrentropyLoss:
    """Welsch/correntropy-induced fit: (sigma^2/2) * sum_i (1 - exp(-res_i^2/sigma^2)).

    Bounded above by n_samples * sigma^2 / 2, which is what makes it robust to
    gross outliers. The curvature of each summand never exceeds 1, so the
    design's squared spectral norm bounds the gradient's Lipschitz constant.
    """

    dataset: RegressionDataset
    sigma: float = 1.0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:  # inf makes every value inf * 0 = nan
            raise ValueError("sigma must be positive and finite")

    @cached_property
    def _lipschitz(self):
        return spectral_norm_sq(self.dataset.design)

    def eval(self, x):
        x = as_vector(x)
        _check_dim(x, self.dataset.n_features)
        res = self.dataset.targets - self.dataset.design @ x
        e = np.exp(-((res / self.sigma) ** 2))
        value = 0.5 * self.sigma**2 * float((1.0 - e).sum())
        grad = -(self.dataset.design.T @ (e * res))
        return value, grad

    def lipschitz(self):
        return self._lipschitz


@dataclass(eq=False)
class SquareLoss:
    """Ordinary least squares: 0.5 * ||design @ x - targets||^2."""

    dataset: RegressionDataset

    @cached_property
    def _lipschitz(self):
        return spectral_norm_sq(self.dataset.design)

    def eval(self, x):
        x = as_vector(x)
        _check_dim(x, self.dataset.n_features)
        res = self.dataset.design @ x - self.dataset.targets
        return 0.5 * float(res @ res), self.dataset.design.T @ res

    def lipschitz(self):
        return self._lipschitz


@dataclass(eq=False)
class MaskedLogisticLoss:
    """0.5 * sum over observed (i,j) of log(1 + exp(-X_ij * M_ij)).

    The iterate is an n_users x n_users matrix; the gradient is supported on
    the observed entries only. Both branches of the sigmoid/softplus are
    computed in their numerically safe form, so entries with |X_ij| in the
    hundreds do not overflow. With t = X_ij * M_ij and u = exp(-|t|) from
    one exp, log(1 + exp(-t)) is max(-t, 0) + log1p(u), and sigmoid(-t) is
    u / (1 + u) for t > 0 and 1 / (1 + u) otherwise, so value and gradient
    share the one exp. The value agrees with np.logaddexp(0, -t) to a few
    ulps per entry.
    """

    observed: ObservedSignMatrix

    @cached_property
    def _flat(self):
        return self.observed.rows * self.observed.n_users + self.observed.cols

    @cached_property
    def _half_neg_signs(self):
        return -0.5 * self.observed.signs

    def eval(self, x):
        x = as_matrix(x)
        n = self.observed.n_users
        if x.shape != (n, n):
            raise ValueError(f"iterate has shape {x.shape}, expected {(n, n)}")
        t = x.take(self._flat) * self.observed.signs
        u = np.exp(-np.abs(t))
        value = 0.5 * float((np.maximum(-t, 0.0) + np.log1p(u)).sum())
        grad = np.zeros(n * n)
        grad[self._flat] = self._half_neg_signs * (np.where(t > 0, u, 1.0) / (1.0 + u))
        return value, grad.reshape(n, n)

    def lipschitz(self):
        return 0.125
