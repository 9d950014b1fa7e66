"""Smooth data-fit terms. Each loss exposes eval(x), which indexes and unpacks
as the pair (value, gradient), and a global Lipschitz bound on the gradient
via lipschitz().

eval computes the value at once and returns it with the state its gradient
needs; the gradient is computed the first time item [1] is read (see
_Evaluation). The solver loop reads it only at the points it steps from, so
a rejected candidate's gradient is never computed. A loss that returns a
plain (value, gradient) tuple runs the same way."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, as_vector, check_count, check_positive, spectral_norm_sq


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
        check_count(self.n_users, "n_users")
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


class _Evaluation:
    """One loss evaluation: item [0] is the value, item [1] the gradient.

    The gradient is gradient(state), computed at the first read of [1] and
    then kept, so every later read returns the same array; state is dropped
    once it is used. Unpacking and len() behave as on the pair (value,
    gradient); any index but 0 and 1 raises IndexError.
    """

    __slots__ = ("value", "_grad", "_gradient", "_state")

    def __init__(self, value, gradient, state):
        self.value, self._grad, self._gradient, self._state = value, None, gradient, state

    def __len__(self):
        return 2

    def __getitem__(self, i):
        if i == 0:
            return self.value
        if i == 1:
            if self._grad is None:
                self._grad = self._gradient(self._state)
                self._gradient = self._state = None
            return self._grad
        raise IndexError(f"a loss evaluation has items 0 (value) and 1 (gradient), not {i!r}")


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
        check_positive(self.sigma, "sigma")  # inf makes every value inf * 0 = nan

    @cached_property
    def _lipschitz(self):
        return spectral_norm_sq(self.dataset.design)

    def eval(self, x):
        """(value, gradient) at x, bit-equal to the defining formulas with
        res = targets - design @ x and e = exp(-(res / sigma)^2).

        The elementwise chain runs in place on the two arrays the call makes,
        res and e, and both products are np.dot, which rounds as @ does. The
        evaluation keeps the weights e * res, in e, for its gradient
        -design.T @ (e * res), a fresh array per evaluation.
        """
        x = as_vector(x)
        design = self.dataset.design
        _check_dim(x, design.shape[1])
        res = np.dot(design, x)
        np.subtract(self.dataset.targets, res, out=res)
        e = np.divide(res, self.sigma)
        np.square(e, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        value = 0.5 * self.sigma**2 * float(np.add.reduce(1.0 - e))
        e *= res
        return _Evaluation(value, self._gradient, e)

    def _gradient(self, weights):
        # negated last: with the sign folded into res, the zero entries of an
        # all-zero design column would come out +0.0 rather than -0.0
        grad = np.dot(self.dataset.design.T, weights)
        return np.negative(grad, out=grad)

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
        design = self.dataset.design
        _check_dim(x, design.shape[1])
        res = design @ x - self.dataset.targets
        return _Evaluation(0.5 * float(res @ res), self._gradient, res)

    def _gradient(self, res):
        return self.dataset.design.T @ res

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
    share the one exp: the evaluation keeps t and u for its gradient. The
    value agrees with np.logaddexp(0, -t) to a few ulps per entry.
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
        return _Evaluation(value, self._gradient, (t, u))

    def _gradient(self, state):
        t, u = state
        n = self.observed.n_users
        grad = np.zeros(n * n)
        grad[self._flat] = self._half_neg_signs * (np.where(t > 0, u, 1.0) / (1.0 + u))
        return grad.reshape(n, n)

    def lipschitz(self):
        return 0.125
