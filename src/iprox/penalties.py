"""Non-smooth penalties and constraints: the value of each.

A run needs a penalty's value and its prox, and the proxes live in
iprox.prox. value checks its input. The trace-lasso penalty also has
_value, the same number without the check, which its prox calls on each
dual iterate's primal point, as its duality gap's primal term. The solver
loop takes the L1 and OSCAR values from its prox sites, so those penalties
need no unchecked twin. OSCAR's value is the dot of its ascending
weights with the ascending magnitudes, one sort and no ranks; the solver
loop's OSCAR prox site reads the sorted magnitudes from its pool's clamped
magnitudes, in reverse, and does not sort again, and the L1 site sums the
magnitudes it has just thresholded.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, as_vector, check_count, check_finite_nonneg


@dataclass(frozen=True)
class L1Penalty:
    lam: float

    def __post_init__(self):
        check_finite_nonneg(self.lam, "lam")

    def value(self, x):
        return self.lam * float(np.add.reduce(np.abs(as_vector(x))))


@dataclass(frozen=True)
class OscarPenalty:
    """lambda1 * ||x||_1 + lambda2 * sum_{i<j} max(|x_i|, |x_j|).

    Evaluated through the equivalent sorted form: the coordinate with the
    k-th smallest magnitude carries weight lambda1 + lambda2*(k-1), so the
    value is the dot of _ascending_weights(n) with np.sort(|x|). Ties carry
    equal magnitudes, so the value does not depend on how they are ranked,
    and it is the same bits under any permutation or sign flip of x.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        check_finite_nonneg(self.lambda1, "lambda1")
        check_finite_nonneg(self.lambda2, "lambda2")

    def _ascending_weights(self, n):
        """lambda1 + lambda2*k for k = 0..n-1: the weight of the (k+1)-th
        smallest magnitude of a length-n point."""
        return self.lambda1 + self.lambda2 * np.arange(n)

    def value(self, x):
        x = as_vector(x)
        return float(self._ascending_weights(x.shape[0]) @ np.sort(np.abs(x)))


@dataclass(frozen=True, eq=False)
class TraceLassoPenalty:
    """lam * nuclear norm of design @ Diag(x); adapts between lasso and ridge
    shrinkage depending on how correlated the design columns are."""

    lam: float
    design: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "design", as_matrix(self.design, "design"))
        check_finite_nonneg(self.lam, "lam")

    @cached_property
    def factor(self):
        """R of design = QR, computed on first use. ||design Diag(x)||_* =
        ||R Diag(x)||_*, so evaluations use this min(n, d) x d factor."""
        return np.linalg.qr(self.design, mode="r")

    @cached_property
    def _lam_factor(self):
        """lam * R, the trace-lasso prox's dual map, computed on first use."""
        return self.lam * self.factor

    @cached_property
    def _dual_lipschitz(self):
        """max_j ||lam R_j||^2: the Lipschitz constant of the trace-lasso
        prox's dual gradient per unit gamma, computed on first use."""
        lam_r = self._lam_factor
        return float(np.max(np.sum(lam_r * lam_r, axis=0), initial=0.0))

    def _check_dim(self, x):
        if x.shape[0] != self.design.shape[1]:
            raise ValueError(
                f"x has length {x.shape[0]}, design has {self.design.shape[1]} columns"
            )

    def value(self, x):
        x = as_vector(x)
        self._check_dim(x)
        return self._value(x)

    def _value(self, x):
        return self.lam * float(np.add.reduce(np.linalg.svd(self.factor * x, compute_uv=False)))


@dataclass(frozen=True)
class RankConstraint:
    """Indicator of {X : rank(X) <= r}, evaluated with a singular-value cutoff.

    value and feasible run an SVD, except on a point with ||X||_F <= tol:
    every singular value is then at most tol, within the cutoff, so the
    point is feasible without one. The solvers call them only on points
    from outside, such as the start point (often zero): prox_rank outputs
    have rank <= r by construction and take value 0.
    """

    r: int
    tol = 1e-8

    def __post_init__(self):
        check_count(self.r, "rank bound")

    def feasible(self, x):
        x = as_matrix(x)
        if self.r >= min(x.shape) or np.linalg.norm(x) <= self.tol:
            return True
        s = np.linalg.svd(x, compute_uv=False)
        return bool(s[self.r] <= self.tol * max(s[0], 1.0))

    def value(self, x):
        return 0.0 if self.feasible(x) else np.inf
