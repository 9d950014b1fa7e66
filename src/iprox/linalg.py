"""Dense SVD helpers: exact truncation, randomized power iteration, spectral norm."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8


def as_vector(x, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def as_matrix(a, name="a"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass
class SvdFactors:
    """Rank-r factors U (rows x r), s (r,), V (cols x r) with A ~= U diag(s) V^T."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = as_matrix(self.u, "u")
        self.v = as_matrix(self.v, "v")
        self.s = as_vector(self.s, "s")
        r = self.s.shape[0]
        if self.u.shape[1] != r or self.v.shape[1] != r:
            raise ValueError("factor rank mismatch")
        if np.any(self.s < 0) or np.any(np.diff(self.s) > 0):
            raise ValueError("singular values must be non-negative and non-increasing")
        for q, name in ((self.u, "u"), (self.v, "v")):
            gram = q.T @ q
            if not np.allclose(gram, np.eye(r), atol=ORTHO_TOL):
                raise ValueError(f"{name} columns are not orthonormal")

    def reconstruct(self):
        return (self.u * self.s) @ self.v.T


def _canonical_signs(u, v):
    # Largest-magnitude entry of each left vector is made non-negative so that
    # factorizations are reproducible across backends.
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


def truncated_svd_exact(a, r):
    """Best rank-r factors of a dense matrix.

    Raises ValueError when r is not in [1, min(a.shape)].
    """
    a = as_matrix(a)
    if not isinstance(r, (int, np.integer)) or not 1 <= r <= min(a.shape):
        raise ValueError(f"rank r={r} outside [1, {min(a.shape)}]")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    u, v = _canonical_signs(u[:, :r].copy(), vt[:r].T.copy())
    return SvdFactors(u, s[:r].copy(), v)


def truncated_svd_power(a, r, power_iters, seed):
    """Approximate rank-r factors via seeded subspace/power iteration.

    Deterministic for fixed inputs and seed; the subspace is re-orthonormalized
    by QR every sweep so the returned factors satisfy the SvdFactors invariants.
    """
    a = as_matrix(a)
    if not isinstance(r, (int, np.integer)) or not 1 <= r <= min(a.shape):
        raise ValueError(f"rank r={r} outside [1, {min(a.shape)}]")
    if power_iters < 1:
        raise ValueError("power_iters must be a positive integer")
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((a.shape[1], r)))[0]
    for _ in range(power_iters):
        q = np.linalg.qr(a.T @ (a @ q))[0]
    b = a @ q
    ub, s, wt = np.linalg.svd(b, full_matrices=False)
    u, v = _canonical_signs(ub.copy(), (q @ wt.T).copy())
    return SvdFactors(u, s.copy(), v)


def spectral_norm_sq(a):
    """Largest squared singular value: the top eigenvalue of the smaller Gram matrix."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    b = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(b)[-1])
