"""Proximal gradient solvers with inexact inner solves.

Six solver kinds run one loop. Every iteration may take the monitor step
v = prox(x_k - gamma * grad g(x_k)), a plain prox-gradient step from the
current point; pg/ipg take it alone. apg/aipg and nmapg/nmaipg also build the
extrapolated candidate z from the momentum point y and accept whichever of z
and v has the smaller objective, which is what makes acceleration safe on
non-convex problems. The non-monotone variant first tries to accept z
outright whenever it improves on f(x_k) by at least (delta/2) * ||z - y||^2,
skipping the monitor prox entirely on such steps. The exact kinds are the
inexact code paths with an exact prox and eps_k = 0; they are not separate
implementations.

The loss is evaluated once per point, and the loop keeps the accepted
point's evaluation. An evaluation indexes as (value, gradient), and the loop
reads its gradient, item [1], only where it steps from the point: at y, at
the monitor anchor x_k and at a shared iteration. The shipped losses compute
the gradient at that first read, so a rejected candidate's gradient, or that
of a point the shortcut leaves, is never computed; a loss returning a plain
(value, gradient) tuple runs the same steps.

The z site warm-starts from its previous result. The accelerated kinds'
monitor warm-starts from the z result of the same iteration, whose anchor
y_k - gamma * grad g(y_k) is near its own; pg/ipg chain their monitor results.
At k = 1 the momentum point y_1 is x_0, and at k = 2, after the z-accept or
shortcut that k = 1 ends in, y_2 is x_1. There both sites have one
subproblem, so the v site takes the z site's result, objective and evaluation,
and makes no prox call and no loss evaluation; the record's inner_iters
counts that call once, and its monitor_inner_iters is 0. y equals x_k there
up to the sign of zero entries, so the z anchor steps from the gradient the
loop holds at x_k. apg and aipg thus evaluate the loss once at k = 1 and 2
and three times on every later iteration (TestOracleCalls pins the counts),
and compute two gradients on every later iteration: y's and x_k's.

The loop's n x n arithmetic builds one fresh array per expression (_anchor,
extrapolate, _sq_norm), bit-equal to the plain numpy expressions, and keeps
no buffer across iterations.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_count, check_finite_nonneg, check_positive, check_rank, check_seed
from .penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from .prox import (
    ProxResult,
    _momentum_next,
    _oscar_ramp,
    _prox_l1,
    _prox_oscar_exact,
    prox_rank,
    prox_tracelasso_inexact,
)

SOLVER_KINDS = ("pg", "apg", "nmapg", "ipg", "aipg", "nmaipg")
EXACT_KINDS = ("pg", "apg", "nmapg")


class SolverAbort(RuntimeError):
    """Raised when a run meets a non-finite point or objective; carries the
    records completed before it."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = list(records) if records else []


@dataclass(frozen=True)
class ErrorSchedule:
    """Per-iteration inexactness targets

        eps_k = max(c / k**p, alpha * prev_step_sq, floor),

    where prev_step_sq is the squared monitor displacement of the previous
    iteration. Every run reads all four constants, each 0 by default; the
    constructors set only their own:

    constant(c): eps_k = c (c = 0 requests exact proximal steps)
    polynomial(c, p): eps_k = c / k**p
    adaptive(alpha, floor): eps_k = max(alpha * prev_step_sq, floor), floor > 0
    """

    c: float = 0.0
    p: float = 0.0
    alpha: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
        # a nan eps_k would fail every certified_eps > eps_k test, hiding misses
        for name in ("c", "p", "alpha", "floor"):
            check_finite_nonneg(getattr(self, name), name)

    @classmethod
    def constant(cls, c):
        return cls(c=c)

    @classmethod
    def polynomial(cls, c, p):
        return cls(c=c, p=p)

    @classmethod
    def adaptive(cls, alpha, floor=1e-12):
        schedule = cls(alpha=alpha, floor=floor)
        check_positive(floor, "floor")
        return schedule


def schedule_eps(schedule, k, prev_step_sq=0.0):
    """eps_k at iteration k >= 1 after a squared step prev_step_sq. A term
    whose constants are 0 is 0, so each constructor's schedule gives its own
    formula's bits; max keeps its first argument over a nan, so the nan of
    alpha = 0 times an infinite step drops out."""
    if k < 1:
        raise ValueError("iteration index starts at 1")
    try:
        decay = schedule.c / float(k) ** schedule.p
    except OverflowError:  # k**p passed the largest float: divide in logs
        decay = math.exp(math.log(schedule.c) - schedule.p * math.log(k)) if schedule.c else 0.0
    return max(decay, schedule.alpha * prev_step_sq, schedule.floor)


def momentum_next(t):
    """t_{k+1} = (sqrt(4 t_k^2 + 1) + 1) / 2; satisfies t'^2 - t' = t^2.

    Raises ValueError for t < 0. The loop calls the unchecked core
    _momentum_next (from iprox.prox) on its own t.
    """
    if t < 0:
        raise ValueError("momentum parameter must be non-negative")
    return _momentum_next(t)


def extrapolate(x_cur, x_prev, z_cur, t_prev, t_cur):
    """Momentum point y_k combining the candidate and accepted sequences.

    Bit-equal to x_cur + (t_prev / t_cur) * (z_cur - x_cur)
    + ((t_prev - 1) / t_cur) * (x_cur - x_prev), summed left to right, but
    built in one fresh array plus one scratch array: IEEE addition and
    multiplication commute, so the in-place order rounds the same.
    """
    y = np.subtract(z_cur, x_cur)
    y *= t_prev / t_cur
    np.add(x_cur, y, out=y)
    scratch = np.subtract(x_cur, x_prev)
    scratch *= (t_prev - 1.0) / t_cur
    y += scratch
    return y


@dataclass(frozen=True)
class SolverConfig:
    """The settings of one run, and the one home of their defaults: the CLI
    and the scripts pass only the settings they are given."""

    max_iters: int  # outer iterations; every run takes all of them
    solver_kind: str  # one of SOLVER_KINDS
    gamma: float | None = None  # step size; None picks 0.9 / L at run start
    delta: float = 0.6  # shortcut descent coefficient of nmapg/nmaipg
    # eps_k of the inexact kinds; the exact kinds request eps_k = 0
    error_schedule: ErrorSchedule = field(default_factory=lambda: ErrorSchedule.polynomial(1e-2, 2.0))
    seed: int = 0  # seed of the rank prox's cold start
    inner_max_iters: int = 2000  # inner budget of the trace-lasso prox only
    rank_mode: str = "residual"  # rank prox mode under inexact kinds: exact, power or residual

    def __post_init__(self):
        if self.solver_kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.solver_kind!r}")
        check_count(self.max_iters, "max_iters")
        if not isinstance(self.error_schedule, ErrorSchedule):
            raise TypeError(f"error_schedule must be an ErrorSchedule, got {self.error_schedule!r}")
        if self.gamma is not None:
            check_positive(self.gamma, "gamma")
        check_positive(self.delta, "delta")
        check_seed(self.seed)
        check_count(self.inner_max_iters, "inner_max_iters")
        if self.rank_mode not in ("exact", "power", "residual"):
            raise ValueError("rank_mode must be 'exact', 'power' or 'residual'")


@dataclass(slots=True)
class IterationRecord:
    k: int
    objective: float
    step_norm_sq: float
    eps_k: float
    certified_eps: float
    inner_iters: int
    branch: str
    wall_seconds: float
    inner_converged: bool = True
    monitor_objective: float | None = None
    monitor_step_sq: float | None = None
    monitor_eps: float | None = None
    monitor_inner_iters: int = 0
    z_objective: float | None = None
    z_step_sq: float | None = None


@dataclass
class IterationTrace:
    solver_kind: str
    gamma: float
    seed: int
    records: list
    final_point: np.ndarray
    iterates: list | None = None

    def objectives(self):
        return np.array([r.objective for r in self.records])

    def key(self):
        """Packed float64 bytes of (k, objective, step_norm_sq, eps_k,
        certified_eps, inner_iters) per record, and the branch labels; wall
        time is excluded. Equal keys mean bit-identical traces."""
        numbers = [
            (r.k, r.objective, r.step_norm_sq, r.eps_k, r.certified_eps, r.inner_iters)
            for r in self.records
        ]
        return np.array(numbers, dtype=np.float64).tobytes(), tuple(r.branch for r in self.records)


def _make_prox(penalty, use_exact, config, gamma, x0):
    """Bind a penalty to its prox site for one run: a callable
    (anchor, eps_k, prev) -> ProxResult whose value is the penalty's value
    at its point, bit-equal to penalty.value(point). A run takes every prox
    step with its one gamma on points shaped as x0, so each site is built
    once per run, from both, and keeps no state between calls.

    L1 and OSCAR take their exact prox (soft thresholding, sort and pooling)
    under every kind, with certified_eps 0 and no inner iterations: any
    certificate of an inexact OSCAR point needs a feasible dual point, whose
    projection costs one more sort and pool, so an inexact prox could only
    cost more. Trace lasso and the rank prox in config.rank_mode ("residual"
    by default) are the inexact proxes the solvers run; the exact kinds take
    the exact rank prox whatever rank_mode says. prev is the result to
    warm-start from (which one: see the module docstring), or None; the
    trace-lasso and rank proxes start from its dual (the subspace basis for
    the rank prox), and the L1, OSCAR and exact-rank sites ignore it.

    The L1 site sums the magnitudes |point| that soft thresholding returns.
    The OSCAR site builds the shrinkage ramp and the penalty's ascending
    weights at bind and sorts once per call: the pool returns its clamped
    magnitudes, which read in reverse are np.sort(|point|), so their dot
    with the weights is bit-equal to the penalty's value. The reversed
    magnitudes are copied first: numpy takes BLAS's dot only for positive
    strides, and its own loop sums in another order. At lambda2 = 0 the
    ramp is flat, and the pool's point is soft thresholding's, bit for bit.
    The trace-lasso prox computes the value at each of its iterates as its
    duality gap's primal term and returns it for the point it picks, so the
    site runs no SVD of its own. Every rank-prox mode returns points of
    rank <= r by construction, and value 0.0, without the SVD that
    RankConstraint.value runs; the bound r is checked against x0's shape
    here, so a bad one raises before the run starts.

    The L1 and OSCAR proxes and every value are the unchecked cores: the
    loop feeds them its own finite iterates, and a non-finite anchor passes
    through them to loss.eval's scan. The trace-lasso and rank proxes stay
    the public functions, whose input check is small against their inner
    iterations. Both are called through their names in this module, so a
    wrapper set there sees every call.
    """

    if isinstance(penalty, L1Penalty):
        lam, threshold = penalty.lam, gamma * penalty.lam

        def call(anchor, eps_k, prev):
            point, mag = _prox_l1(anchor, threshold)
            return ProxResult(point, 0.0, 0, value=lam * float(np.add.reduce(mag)))

        return call

    if isinstance(penalty, OscarPenalty):
        weights = penalty._ascending_weights(x0.shape[0])
        ramp = _oscar_ramp(penalty, x0.shape[0], gamma)

        def call(anchor, eps_k, prev):
            point, mags = _prox_oscar_exact(anchor, ramp)
            return ProxResult(point, 0.0, 0, value=float(weights @ mags[::-1].copy()))

        return call

    if isinstance(penalty, TraceLassoPenalty):
        if use_exact:
            raise ValueError("trace-lasso penalty has no exact prox; use an inexact solver kind")

        def call(anchor, eps_k, prev):
            return prox_tracelasso_inexact(
                anchor, gamma, penalty, inner_budget=config.inner_max_iters,
                eps_target=eps_k, w0=None if prev is None else prev.dual,
            )

        return call

    if isinstance(penalty, RankConstraint):
        check_rank(x0.shape, penalty.r)
        mode = "exact" if use_exact else config.rank_mode

        def call(anchor, eps_k, prev):
            return prox_rank(
                anchor, penalty.r, mode=mode, seed=config.seed, gamma=gamma, eps_target=eps_k,
                v0=None if prev is None else prev.dual,
            )

        return call

    raise TypeError(f"no prox rule for {type(penalty).__name__}")


def _sq_norm(d):
    """||d||^2, squaring d in place: callers pass a fresh difference."""
    np.multiply(d, d, out=d)
    return float(np.add.reduce(d, axis=None))


def _anchor(x, grad, gamma):
    """The prox anchor x - gamma * grad, bit for bit, in one fresh array."""
    a = gamma * grad
    np.subtract(x, a, out=a)
    return a


def _resolve_gamma(loss, config):
    lip = loss.lipschitz()
    if lip is None or not np.isfinite(lip) or lip < 0:
        raise ValueError("objective does not provide a usable Lipschitz bound; refusing to run")
    gamma = config.gamma if config.gamma is not None else (0.9 / lip if lip > 0 else 1.0)
    if lip > 0 and not gamma < 1.0 / lip:
        raise ValueError(f"gamma={gamma} violates gamma < 1/L = {1.0 / lip}")
    return gamma


def _objective(loss, res, k, kind, records):
    """Objective and loss evaluation at a prox site's result, inside the loop.
    The evaluation's gradient is not read here.

    res.value is the penalty's value at res.point, from the prox site.
    loss.eval's finiteness scan of the point guards the loop; a non-finite
    objective is caught behind it.
    """
    ev = loss.eval(res.point)
    fval = ev[0] + res.value
    _check_finite(fval, k, kind, records)
    return fval, ev


def _check_finite(fval, k, kind, records=None):
    if not math.isfinite(fval):
        raise SolverAbort(f"{kind} aborted: objective became {fval} at iteration {k}", records)


def run_solver(loss, penalty, x0, config, keep_iterates=False):
    """Run config.solver_kind from x0 (a vector, or a matrix for a rank
    constraint) and return its IterationTrace. The one solver entry point.

    The inputs are checked here, and a bad one raises ValueError. A
    ValueError inside the loop, such as loss.eval meeting a non-finite
    point, raises SolverAbort naming the iteration and carrying the records
    completed before it.
    """
    records = []  # the loop appends each completed iteration's record
    try:
        return _run(loss, penalty, x0, config, keep_iterates, records)
    except ValueError as exc:
        if not records:  # an entry check failed before the start point's record
            raise
        raise SolverAbort(
            f"{config.solver_kind} aborted at iteration {len(records)}: {exc}", records
        ) from exc


def _run(loss, penalty, x0, config, keep_iterates, records):
    kind = config.solver_kind
    x_cur = np.asarray(x0, dtype=np.float64)
    if not np.isfinite(x_cur).all():
        raise ValueError("starting point contains non-finite entries")
    gamma = _resolve_gamma(loss, config)
    exact = kind in EXACT_KINDS
    accelerated = kind not in ("pg", "ipg")
    nonmonotone = kind in ("nmapg", "nmaipg")
    ev_cur = loss.eval(x_cur)  # the accepted point's evaluation, its gradient unread
    f_cur = ev_cur[0] + penalty.value(x_cur)  # x0 comes from outside: the public value checks it
    _check_finite(f_cur, 0, kind)
    prox = _make_prox(penalty, exact, config, gamma, x_cur)
    x_cur = x_prev = z = x_cur.copy()
    t_prev, t_cur = 0.0, 1.0
    start = time.perf_counter()
    records.append(IterationRecord(0, f_cur, 0.0, 0.0, 0.0, 0, "init", 0.0))
    iterates = [{"x": x_cur.copy()}] if keep_iterates else None
    res_z = res_v = None  # each site's latest result: res_z warm-starts both, res_v pg/ipg's
    f_z = z_step_sq = None  # the candidate's, under the accelerated kinds only
    prev_step_sq = 0.0
    for k in range(1, config.max_iters + 1):
        eps_k = 0.0 if exact else schedule_eps(config.error_schedule, k, prev_step_sq)
        shortcut = shared = False
        if accelerated:
            # y is x_k at k = 1 (x_prev is x_cur) and at k = 2 (t_prev = 1) after a
            # z-accept or shortcut: then the z result is the monitor's result
            shared = z is x_cur and (x_prev is x_cur or t_prev == 1.0)
            y = extrapolate(x_cur, x_prev, z, t_prev, t_cur)
            t_prev, t_cur = t_cur, _momentum_next(t_cur)
            grad_y = ev_cur[1] if shared else loss.eval(y)[1]  # y is x_k up to the sign of zeros
            res_z = prox(_anchor(y, grad_y, gamma), eps_k, res_z)
            z = res_z.point
            f_z, ev_z = _objective(loss, res_z, k, kind, records)
            z_step_sq = _sq_norm(z - y)
            shortcut = nonmonotone and f_z <= f_cur - 0.5 * config.delta * z_step_sq

        f_v = v_step_sq = None
        if shortcut:
            branch, res_v = "shortcut", None
        else:  # the monitor step, which pg/ipg take alone
            if shared:
                res_v, f_v, ev_v = res_z, f_z, ev_z
            else:
                warm = res_z if accelerated else res_v  # this iteration's z result, near x_k's subproblem
                res_v = prox(_anchor(x_cur, ev_cur[1], gamma), eps_k, warm)
                f_v, ev_v = _objective(loss, res_v, k, kind, records)
            v_step_sq = _sq_norm(res_v.point - x_cur)
            if not accelerated:
                branch = "prox"
            else:
                branch = "z-accepted" if f_z <= f_v else "v-accepted"

        if branch in ("prox", "v-accepted"):
            res, f_next, ev_next, step_sq = res_v, f_v, ev_v, v_step_sq
        else:
            res, f_next, ev_next = res_z, f_z, ev_z
            step_sq = _sq_norm(z - x_cur)
        x_next = res.point
        monitor_inner = res_v.inner_iters if res_v and not shared else 0  # a shared call counts once
        records.append(
            IterationRecord(  # every field positionally: keywords cost more per call
                k, f_next, step_sq, eps_k, res.certified_eps,
                (res_z.inner_iters if accelerated else 0) + monitor_inner,
                branch, time.perf_counter() - start,
                (res_z.converged if accelerated else True) and (res_v.converged if res_v else True),
                f_v, v_step_sq, res_v.certified_eps if res_v else None, monitor_inner,
                f_z, z_step_sq,
            )
        )
        if keep_iterates:
            state = {"x": x_next.copy()}
            if accelerated:
                state.update(y=y.copy(), z=z.copy(), v=res_v.point.copy() if res_v else None, f_x_prev=f_cur)
            iterates.append(state)
        # adaptive schedules key off the monitor displacement when one exists
        prev_step_sq = v_step_sq if v_step_sq is not None else step_sq
        x_prev, x_cur = x_cur, x_next
        f_cur, ev_cur = f_next, ev_next
    return IterationTrace(kind, gamma, config.seed, records, x_cur, iterates)
