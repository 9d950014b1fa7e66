"""Proximal operators, exact and inexact, with per-call error certificates.

An inexact prox call returns a ProxResult whose certified_eps bounds the gap
between the subproblem objective at the returned point and the subproblem
minimum, so callers can trust Q(point) <= min Q + certified_eps.

Each path has its own rounding policy. The residual-mode rank prox pads its
certificate for rounding with delta (the rounding scale of the computed
residual, traces and Ritz values) and rho (what rounding in the final
product adds to the returned point's gap); see prox_rank. The power-mode
gap top - ritz, the trace-lasso duality gap (whose primal term is the
penalty's own value) and oscar_dual_gap (which prox_oscar_inexact reports
for the exact OSCAR pool) are raw float64 differences, with no pad. The L1
and OSCAR proxes and the exact rank mode certify 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_matrix, as_vector, check_count, check_positive, check_rank, check_seed, truncated_svd_exact,
)
from .penalties import L1Penalty, OscarPenalty, TraceLassoPenalty


@dataclass(slots=True)
class ProxResult:
    """One prox call's point and certificate.

    value is the regularizer's value at point, bit-equal to its public
    value(point), where the prox has that number in hand: the rank prox
    (0.0) and the trace-lasso prox (its duality gap's primal term). It is
    None where the prox does not, as in prox_oscar_inexact.
    """

    point: np.ndarray
    certified_eps: float
    inner_iters: int
    gap_history: list = field(default_factory=list)
    converged: bool = True
    eps_is_heuristic: bool = False  # always False: every certificate is a bound
    dual: np.ndarray | None = None  # dual iterate or subspace basis, for warm starts
    value: float | None = None


@dataclass(frozen=True, eq=False)
class ProxSubproblem:
    """min over x of ||x - anchor||^2 / (2 gamma) + regularizer(x)."""

    anchor: np.ndarray
    gamma: float
    regularizer: object

    def __post_init__(self):
        check_positive(self.gamma, "gamma")

    def objective(self, x):
        d = x - self.anchor
        return float(np.sum(d * d)) / (2.0 * self.gamma) + self.regularizer.value(x)


def prox_l1(y, threshold):
    """Soft thresholding; exact prox of threshold * ||.||_1."""
    y = as_vector(y)
    if not threshold >= 0:  # written so that nan fails it too
        raise ValueError("threshold must be non-negative")
    return _prox_l1(y, threshold)[0]


def _prox_l1(y, threshold):
    """prox_l1 without the checks: the point sign(y) * mag and its magnitudes
    mag = max(|y| - threshold, 0), |point| exactly. At y = -0.0 the point is
    +0.0, where np.copysign(mag, y) would give -0.0."""
    mag = np.abs(y)
    mag -= threshold
    np.maximum(mag, 0.0, out=mag)
    point = np.sign(y)
    point *= mag
    return point, mag


def _momentum_next(t):
    """FISTA's t' = (sqrt(4 t^2 + 1) + 1) / 2, unchecked, for the solver loop's
    and the trace-lasso prox's own t, which starts at 1 and only grows."""
    return 0.5 * (math.sqrt(4.0 * t * t + 1.0) + 1.0)


def _pav_nonincreasing(z):
    """Euclidean projection of a sequence onto non-increasing sequences.

    Pools adjacent violators with a stack of blocks (sum, count), merging
    while the top block's mean is below the current one. The means compared
    are the quotients sum / count that are written out, so the output never
    rises, not even by an ulp where two means tie. Only an ascent
    z[i - 1] < z[i] can start a merge: between two ascents z is
    non-increasing, so once an element of such a stretch settles as a
    block of one, so does every later element of the stretch (none exceeds
    its predecessor). The stack therefore keeps runs of singletons as one
    entry, the interpreted loop visits only the elements from each ascent
    until one settles alone, and the output is z with the pooled blocks
    written over it. Every pooled sum takes the same additions and
    comparisons as a stack step per element, so the result is bitwise the
    same on every input, however dense its ascents.
    """
    n = z.shape[0]
    ascents = z[:-1] < z[1:]
    val = z.item  # the loop reads only the elements it visits
    bounds = [j + 1 for j in np.flatnonzero(ascents).tolist()] + [n]
    # stack entries: (sum, count) of a pooled block, or (None, length) for a
    # run of singletons; the entries tile z[:i] left to right
    sums = [None]
    counts = [bounds[0]]
    for i, end in zip(bounds, bounds[1:]):
        while i < end:
            cur_sum = val(i)
            cur_cnt = 1
            while counts:
                top = sums[-1]
                cnt = counts[-1]
                if top is None:  # the run's last singleton, z[i - cur_cnt]
                    top = val(i - cur_cnt)
                    if not top < cur_sum / cur_cnt:
                        break
                    cur_sum += top
                    cur_cnt += 1
                    if cnt == 1:
                        sums.pop()
                        counts.pop()
                    else:
                        counts[-1] = cnt - 1
                elif top / cnt < cur_sum / cur_cnt:
                    cur_sum += top
                    cur_cnt += cnt
                    sums.pop()
                    counts.pop()
                else:
                    break
            if cur_cnt == 1:  # settled alone, so the rest of the stretch does too
                sums.append(None)
                counts.append(end - i)
                break
            sums.append(cur_sum)
            counts.append(cur_cnt)
            i += 1
    out = np.array(z, dtype=np.float64)
    pos = 0
    for s, c in zip(sums, counts):
        if s is not None:
            out[pos : pos + c] = s / c
        pos += c
    return out


def prox_oscar_exact(y, gamma, lambda1, lambda2):
    """Exact prox of the pairwise-max penalty.

    Sort magnitudes in decreasing order, shrink the i-th largest by
    gamma * (lambda1 + lambda2 * (N - i)), restore monotonicity by pooling
    adjacent violators, clamp at zero, then undo the sort and signs.
    """
    y = as_vector(y)
    check_positive(gamma, "gamma")
    penalty = OscarPenalty(lambda1, lambda2)  # checks both weights
    return _prox_oscar_exact(y, _oscar_ramp(penalty, y.shape[0], gamma))[0]


def _oscar_ramp(penalty, n, gamma):
    """gamma * (lambda1 + lambda2 * (n - 1 - i)): the shrinkage of the i-th
    largest of n magnitudes, the penalty's ascending weights reversed."""
    return gamma * penalty._ascending_weights(n)[::-1]


def _prox_oscar_exact(y, ramp):
    """prox_oscar_exact without the checks, given its shrinkage ramp.

    Returns the point and the pool's clamped magnitudes, the non-increasing
    |point| in pool order. Read in reverse they are np.sort(|point|), bit
    for bit. Where y is zero the two could differ, but the zeros sort last
    and shrink to at most 0, and a pooled block's mean is at most that of
    its tail, so the clamp gives their +0.0 (a shrunk value, a difference,
    is never -0.0, nor is a sum of them).
    """
    mag = np.abs(y)
    order = np.argsort(-mag, kind="stable")
    mags = np.maximum(_pav_nonincreasing(mag[order] - ramp), 0.0)
    out = np.empty(y.shape[0])
    out[order] = mags * np.sign(y)[order]
    return out, mags


def oscar_dual_gap(x, subproblem):
    """Duality gap of the pairwise-max prox subproblem at x; zero at the optimum.

    The dual point is the Euclidean projection of xi = (x - anchor) / gamma
    onto the penalty's dual ball, xi minus the unit-stepsize penalty prox
    (Moreau): one more sort and pool, with the unit-step ramp. It is
    feasible up to rounding whatever x is, so the gap bounds Q(x) - min Q
    everywhere. An L1 regularizer is the OSCAR penalty with lambda2 = 0.
    """
    x = as_vector(x)
    penalty = subproblem.regularizer
    if isinstance(penalty, L1Penalty):
        penalty = OscarPenalty(penalty.lam, 0.0)
    elif not isinstance(penalty, OscarPenalty):
        raise TypeError(f"no sorted-weight form for {type(penalty).__name__}")
    if penalty.lambda1 == 0 and penalty.lambda2 == 0:
        raise ValueError("dual gap undefined when both penalty weights are zero")
    anchor, gamma = subproblem.anchor, subproblem.gamma
    xi = as_vector((x - anchor) / gamma, "(x - anchor) / gamma")  # a non-finite anchor raises
    beta = xi - _prox_oscar_exact(xi, _oscar_ramp(penalty, xi.shape[0], 1.0))[0]
    dual = -0.5 * gamma * float(beta @ beta) - float(beta @ anchor)
    return max(subproblem.objective(x) - dual, 0.0)


def prox_oscar_inexact(y, gamma, lambda1, lambda2, eps_target):
    """The exact pooling prox, certified by its oscar_dual_gap.

    Returns the point of prox_oscar_exact (one sort-and-pool solve) with
    certified_eps its oscar_dual_gap (a second sort and pool, for the dual
    point). That gap is a raw float64 difference at rounding level, so the
    call meets every eps_target at or above it and reports converged=False
    for a target below it; eps_target is None or >= 0, and None asks for
    no target.
    """
    y = as_vector(y)
    sub = ProxSubproblem(y, gamma, OscarPenalty(lambda1, lambda2))
    _check_eps_target(eps_target)
    pool, _ = _prox_oscar_exact(y, _oscar_ramp(sub.regularizer, y.shape[0], gamma))
    cert = oscar_dual_gap(pool, sub)
    return ProxResult(pool, cert, 0, [cert], converged=eps_target is None or cert <= eps_target)


def _check_eps_target(eps_target):
    """Raise ValueError unless eps_target is None or a number >= 0 (+inf
    included): nan fails every comparison and would never be met."""
    if eps_target is not None and not eps_target >= 0:
        raise ValueError("eps_target must be non-negative")


def _top_eigensum(gram, r):
    """Sum of the r largest eigenvalues of a Gram matrix, from one eigvalsh."""
    return float(np.sum(np.linalg.eigvalsh(gram)[-r:]))


def prox_rank(
    y, r, mode="exact", power_iters=100, seed=0, gamma=0.5, eps_target=None, v0=None,
):
    """Projection onto matrices of rank <= r, the prox of the rank indicator.

    Exact mode is truncated_svd_exact (one eigh of the smaller Gram matrix)
    and certifies zero error. Power and residual modes run one subspace
    iteration Q <- qr(a^T (a Q)), with a = y (y^T for wide y) of shape
    n x m, n >= m, without forming the Gram matrix G = a^T a, and return
    (a Q_r) Q_r^T (transposed back for wide y) with dual = Q_r. A warm
    start iterates the columns of v0, a previous result's dual; a v0 that
    is not finite with m rows and at least r columns raises ValueError. A
    cold start iterates r + 5 columns of a seeded Gaussian block, so that a flat
    spectrum around sigma_r still converges (oversampling; Halko,
    Martinsson & Tropp). Each sweep takes a Rayleigh-Ritz step on
    (a Q)^T (a Q) and keeps the top r Ritz vectors Q_r, with
    A = Q_r^T G Q_r; with top the sum of the r largest eigenvalues of G,
    ||y - P||^2 - min = top - tr(A), and certified_eps bounds that gap
    over 2 gamma, the subproblem gap. The modes differ only in the
    certificate:

    - power: top from one eigvalsh of G per call, so the certificate is the
      gap itself. The sweeps stop at the rounding level m * eps_mach * top.
    - residual: the quadratic residual bound for Hermitian eigenvalues
      (Mathias 1998; C.-K. Li & R.-C. Li 2005), at O(n m r) per sweep.
      delta = (n + m + 2 k) sqrt(k) eps_mach ||a||_F^2, k the width of Q,
      is the rounding scale of the computed residual, traces and Ritz
      values. With e = ||G Q_r - Q_r A||_F + delta (at least ||E||_2 for
      the off-diagonal block E of G in the basis [Q_r, Q_r-perp]),
      beta at least the top eigenvalue of the complement block B, and
      eta = lambda_min(A) - beta, the r largest eigenvalues of G each lie
      within 2 e^2 / (eta + sqrt(eta^2 + 4 e^2)) of A's once eta > 0, so
      r times that, the quadratic part, bounds top - tr(A). beta is
      min(tr_B, f_B). tr_B = ||a||_F^2 - tr(A) + (r + 1) delta is at
      least tr(B) and costs nothing extra. f_B, taken only on sweeps where
      tr_B leaves eta <= 0, is at least ||B||_F >= ||B||_2:
      f_B^2 = ||G||_F^2 - 2 ||G Q_r||_F^2 + sum lambda^2 + pad, with G
      formed once per call at the first such sweep. ||G||_F, ||G Q_r||_F
      and each Ritz value are at most ||a||_F^2, because
      ||G||_F <= tr(G), and each carries rounding of at most delta, so
      pad = (8 ||a||_F^2 + (r + 3) delta) delta covers that of the squares.
      rho = 2 r eps_mach sqrt(r ||a||_F^2 tr_B) bounds what rounding adds
      to the returned point's gap: the final product's error outside the
      span of Q_r, at most r eps_mach sqrt(r ||a||_F^2) in norm, meets
      the residual a - a Q_r Q_r^T, at most sqrt(tr_B) in norm. The
      certificate is (quadratic part + rho) / 2 gamma, and the sweeps stop
      once the quadratic part is at most rho or the computed residual norm
      is at most delta. A sweep with eta <= 0 has no bound (gap_history
      holds inf); if the Ritz sum has also grown by at most delta, or the
      budget is spent, the call certifies (top - tr(A) + delta + rho) /
      2 gamma with top from one eigvalsh of G, and sweeps no more.

    Both stop after power_iters QR sweeps at the latest. eps_target (None
    or >= 0) only sets converged; it stops no sweep. Every mode returns
    points of rank <= r by construction, so value is the rank indicator's
    0.0 there.
    """
    y = as_matrix(y)
    _check_eps_target(eps_target)
    if mode not in ("exact", "power", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    check_rank(y.shape, r)
    check_positive(gamma, "gamma")
    check_count(power_iters, "power_iters")
    check_seed(seed)
    if mode == "exact":
        return ProxResult(truncated_svd_exact(y, r), 0.0, 0, [], True, value=0.0)
    wide = y.shape[0] < y.shape[1]
    a = y.T if wide else y
    m = a.shape[1]
    eps = float(np.finfo(np.float64).eps)
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal((m, min(r + 5, m)))
    elif not (np.ndim(v0) == 2 and np.shape(v0)[0] == m and np.shape(v0)[1] >= r and np.isfinite(v0).all()):
        # fewer than r columns would iterate, and certify, a subspace of rank < r
        raise ValueError(f"v0 must be a finite 2-D array with {m} rows and at least {r} columns")
    q = np.linalg.qr(v0)[0]
    if mode == "power":
        top = _top_eigensum(a.T @ a, r)
        tol = m * eps * top
    else:
        total = float(np.sum(a * a))
        delta = (a.shape[0] + m + 2 * q.shape[1]) * math.sqrt(q.shape[1]) * eps * total
        ritz_prev = -math.inf
        gram = None  # formed once, on the first sweep the trace bound leaves unseparated
    history = []
    for sweeps in range(power_iters + 1):
        aq = a @ q
        gq = a.T @ aq
        values, w = np.linalg.eigh(aq.T @ aq)
        lam, w = values[-r:], w[:, -r:]
        ritz = float(lam.sum())
        last = sweeps == power_iters
        if mode == "power":
            gap = max(top - ritz, 0.0)
            done = gap <= tol
        else:
            gw = gq @ w
            resid = gw - (q @ w) * lam
            e_c = math.sqrt(float(np.sum(resid * resid)))
            e = e_c + delta
            beta = max(total - ritz, 0.0) + (r + 1) * delta  # tr_B
            eta = float(lam[0]) - beta
            rho = 2.0 * r * eps * math.sqrt(r * total * beta)
            if eta <= 0:  # try f_B
                if gram is None:
                    gram = a.T @ a
                    gram_sq = float(np.sum(gram * gram))
                frob_sq = gram_sq - 2.0 * float(np.sum(gw * gw)) + float(lam @ lam)
                pad = (8.0 * total + (r + 3) * delta) * delta
                eta = float(lam[0]) - math.sqrt(max(frob_sq, 0.0) + pad)
            if eta > 0:
                quad = r * 2.0 * e * e / (eta + math.sqrt(eta * eta + 4.0 * e * e))
                gap, done = quad + rho, quad <= rho or e_c <= delta
            elif last or ritz - ritz_prev <= delta:
                gap, done = max(_top_eigensum(gram, r) - ritz, 0.0) + delta + rho, True
            else:
                gap, done = math.inf, False
            ritz_prev = ritz
        history.append(gap / (2.0 * gamma))
        if done or last:
            break
        q = np.linalg.qr(gq)[0]
    q = q @ w
    point = (aq @ w) @ q.T
    return ProxResult(
        point.T if wide else point, history[-1], sweeps, history,
        eps_target is None or history[-1] <= eps_target, dual=q, value=0.0,
    )


def prox_tracelasso_inexact(y, gamma, penalty, inner_budget=2000, eps_target=None, w0=None):
    """FISTA ascent on the dual of the trace-lasso prox subproblem.

    lam * ||R Diag(x)||_*, R the design's QR factor, is the max of <x, g(W)>
    over ||W||_op <= 1 with g(W) = lam * diag(R^T W). The dual is
    D(W) = <g, y> - gamma ||g||^2 / 2, with primal point x(W) = y - gamma g
    and gradient lam * R Diag(x(W)), (gamma lam^2 max_j ||R_j||^2)-Lipschitz;
    the projection onto the ball clips W's singular values at 1.
    certified_eps is the duality gap Q(x(W)) - D(W) of the best pair seen, so
    gap_history is non-increasing; the loop stops once it meets eps_target
    (None or >= 0) or reaches 0, after which the best pair cannot change.
    The gap's primal term is penalty._value(x(W)), so each evaluation takes
    one SVD and value returns that term at the best point, bit-equal to
    penalty.value(point). The gap is a raw float64 difference, with no pad.
    w0 warm-starts W from a previous result's dual, which is feasible: the
    first gap is taken at w0 itself, so a w0 outside the ball can certify
    less than the true gap. Its shape is checked, and so are two O(d^2)
    necessary conditions of the ball, which every projected dual meets:
    max |w0_ij| and ||w0||_F^2 / min(w0.shape) are at most 1 + 1e-12. A w0
    just outside the ball passes both.
    """
    y = as_vector(y)
    if not isinstance(penalty, TraceLassoPenalty):
        raise TypeError("penalty must be a TraceLassoPenalty")
    check_positive(gamma, "gamma")
    check_count(inner_budget, "inner_budget")
    _check_eps_target(eps_target)
    penalty._check_dim(y)
    lam_r = penalty._lam_factor
    # a nan entry fails the first test, as an inf one does
    if w0 is not None and not (
        np.shape(w0) == lam_r.shape and np.abs(w0).max() <= 1.0 + 1e-12
        and np.vdot(w0, w0) <= min(lam_r.shape) * (1.0 + 1e-12)
    ):
        raise ValueError(f"w0 must be a finite array of shape {lam_r.shape} in the unit operator-norm ball")
    lip = gamma * penalty._dual_lipschitz
    if lip == 0.0:
        return ProxResult(y.copy(), 0.0, 0, [], True, value=penalty._value(y))

    def primal(w):
        return y - gamma * np.einsum("ij,ij->j", lam_r, w)

    w = w_prev = np.zeros_like(lam_r) if w0 is None else w0
    t = 1.0
    best_gap, best_x, best_w, best_value = np.inf, None, None, None
    history = []
    iters = 0
    for _ in range(inner_budget):
        x = primal(w)
        value = penalty._value(x)
        gap = max(value - float((w * (lam_r * x)).sum()), 0.0)
        if gap < best_gap:
            best_gap, best_x, best_w, best_value = gap, x, w, value
        history.append(best_gap)
        if best_gap == 0.0 or (eps_target is not None and best_gap <= eps_target):
            break
        t_next = _momentum_next(t)
        v = w + ((t - 1.0) / t_next) * (w - w_prev)
        u, s, vt = np.linalg.svd(v + (lam_r * primal(v)) / lip, full_matrices=False)
        w_prev, w, t = w, (u * np.minimum(s, 1.0)) @ vt, t_next
        iters += 1
    converged = eps_target is None or best_gap <= eps_target
    return ProxResult(best_x, best_gap, iters, history, converged, dual=best_w, value=best_value)
