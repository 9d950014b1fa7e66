"""The subgradient toolkit of the penalty tests.

A subgradient selection for each convex penalty, the magnitude ranks the
OSCAR selection reads, and a sampling search for a point that breaks the
eps-subgradient inequality h(y) >= h(x) + <d, y - x> - eps, the membership
behind Schmidt, Le Roux & Bach (arXiv:1109.2415), Lemma 2. A solver run
needs only each penalty's value and prox, so none of this is in iprox.
"""
import numpy as np

from iprox.linalg import as_vector
from iprox.penalties import L1Penalty, OscarPenalty, TraceLassoPenalty

CONVEX = (L1Penalty, OscarPenalty, TraceLassoPenalty)
RANK_RTOL = 1e-10  # trace-lasso singular values at most this times the largest count as zero


def magnitude_order(x):
    """1-based ranks of |x| in ascending order, ties broken by coordinate index.

    order[j] == 1 means x_j has the smallest magnitude.
    """
    a = np.abs(as_vector(x))
    order = np.empty(a.shape[0], dtype=np.int64)
    order[np.argsort(a, kind="stable")] = np.arange(1, a.shape[0] + 1)
    return order


def subgradient(penalty, x):
    """A subgradient of a convex penalty at x.

    L1: lam * sign(x). OSCAR: the weight of each coordinate's magnitude rank
    times its sign. Trace lasso: lam * diag(R^T U V^T) from the thin SVD of
    R @ Diag(x), keeping only directions with singular value above
    RANK_RTOL * s_max.
    """
    x = as_vector(x)
    if isinstance(penalty, L1Penalty):
        return penalty.lam * np.sign(x)
    if isinstance(penalty, OscarPenalty):
        return penalty._ascending_weights(x.shape[0])[magnitude_order(x) - 1] * np.sign(x)
    if not isinstance(penalty, TraceLassoPenalty):
        raise TypeError(f"no subgradient for {type(penalty).__name__}")
    penalty._check_dim(x)
    u, s, vt = np.linalg.svd(penalty.factor * x, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(x)
    keep = s > RANK_RTOL * s[0]
    uv = u[:, keep] @ vt[keep]
    return penalty.lam * np.einsum("ij,ij->j", penalty.factor, uv)


def epsilon_subgradient_witness(penalty, x, d, eps, n_samples=1000, seed=0):
    """Search for a point violating h(y) >= h(x) + <d, y-x> - eps.

    Gaussian candidates are drawn around x at several radii. Returns a
    violating y if one is found, else None (evidence, not proof, of
    membership in the eps-subdifferential). Only valid for convex penalties.
    """
    if not isinstance(penalty, CONVEX):
        raise TypeError(f"{type(penalty).__name__} is not convex; check unsupported")
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    x = as_vector(x)
    d = as_vector(d)
    if x.shape != d.shape:
        raise ValueError("x and d must have equal length")
    hx = penalty.value(x)
    rng = np.random.default_rng(seed)
    radii = (0.1, 1.0, 10.0)
    per_radius = max(n_samples // len(radii), 1)
    scale = 1.0 + float(np.linalg.norm(x))
    for radius in radii:
        for _ in range(per_radius):
            y = x + radius * scale * rng.standard_normal(x.shape[0])
            if penalty.value(y) < hx + d @ (y - x) - eps - 1e-12:
                return y
    return None
