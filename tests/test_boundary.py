"""The public prox, loss and penalty calls check their input.

The solver loop runs unchecked cores of the L1/OSCAR proxes and of the
penalty values, so these calls are where a non-finite input from outside
is stopped. Every count, rank and seed they take is an integer, not a bool,
every step size is positive and finite, and every eps target is None or
a number >= 0.
"""
import numpy as np
import pytest

from iprox.datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from iprox.losses import (
    CorrentropyLoss,
    MaskedLogisticLoss,
    ObservedSignMatrix,
    RegressionDataset,
    SquareLoss,
)
from iprox.penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from iprox.prox import (
    ProxSubproblem,
    prox_l1,
    prox_oscar_exact,
    prox_oscar_inexact,
    prox_rank,
    prox_tracelasso_inexact,
)
from iprox.solvers import SolverConfig

DESIGN = np.arange(12.0).reshape(4, 3) / 10.0 + np.eye(4, 3)
DATASET = RegressionDataset(DESIGN, np.ones(4))
OBSERVED = ObservedSignMatrix(3, np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([1.0, -1.0, 1.0]))
TRACE_LASSO = TraceLassoPenalty(0.1, DESIGN)

VECTOR_CALLS = {
    "prox_l1": lambda x: prox_l1(x, 0.1),
    "prox_oscar_exact": lambda x: prox_oscar_exact(x, 0.5, 0.1, 0.1),
    "prox_oscar_inexact": lambda x: prox_oscar_inexact(x, 0.5, 0.1, 0.1, 1e-6),
    "prox_tracelasso_inexact": lambda x: prox_tracelasso_inexact(x, 0.5, TRACE_LASSO),
    "SquareLoss.eval": SquareLoss(DATASET).eval,
    "CorrentropyLoss.eval": CorrentropyLoss(DATASET).eval,
    "L1Penalty.value": L1Penalty(0.1).value,
    "OscarPenalty.value": OscarPenalty(0.1, 0.1).value,
    "TraceLassoPenalty.value": TRACE_LASSO.value,
}
MATRIX_CALLS = {
    "prox_rank exact": lambda x: prox_rank(x, 1, mode="exact"),
    "prox_rank power": lambda x: prox_rank(x, 1, mode="power"),
    "prox_rank residual": lambda x: prox_rank(x, 1, mode="residual"),
    "MaskedLogisticLoss.eval": MaskedLogisticLoss(OBSERVED).eval,
}
BAD = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(VECTOR_CALLS))
def test_vector_calls_reject_non_finite_input(name, bad):
    x = np.array([0.5, -1.0, 2.0])
    VECTOR_CALLS[name](x)  # finite input is accepted
    x[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        VECTOR_CALLS[name](x)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(MATRIX_CALLS))
def test_matrix_calls_reject_non_finite_input(name, bad):
    x = np.arange(9.0).reshape(3, 3) - 4.0
    MATRIX_CALLS[name](x)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MATRIX_CALLS[name](x)


EPS_TARGET_CALLS = {
    "prox_oscar_inexact": lambda eps: prox_oscar_inexact(np.array([0.5, -1.0, 2.0]), 0.5, 0.1, 0.1, eps),
    "prox_tracelasso_inexact": lambda eps: prox_tracelasso_inexact(
        np.array([0.5, -1.0, 2.0]), 0.5, TRACE_LASSO, eps_target=eps
    ),
    **{
        f"prox_rank {mode}": lambda eps, mode=mode: prox_rank(
            np.arange(9.0).reshape(3, 3) - 4.0, 1, mode=mode, eps_target=eps
        )
        for mode in ("exact", "power", "residual")
    },
}


@pytest.mark.parametrize("bad", (np.nan, -np.inf, -1.0))
@pytest.mark.parametrize("name", sorted(EPS_TARGET_CALLS))
def test_eps_target_must_be_none_or_non_negative(name, bad):
    # a nan target fails every comparison, so it could never be met
    for target in (None, 0.0, np.inf):
        EPS_TARGET_CALLS[name](target)
    with pytest.raises(ValueError, match="eps_target must be non-negative"):
        EPS_TARGET_CALLS[name](bad)


SQUARE = np.arange(9.0).reshape(3, 3) - 4.0
COUNT_CALLS = {
    "SolverConfig max_iters": lambda v: SolverConfig(max_iters=v, solver_kind="ipg"),
    "SolverConfig inner_max_iters": lambda v: SolverConfig(max_iters=1, solver_kind="ipg", inner_max_iters=v),
    "SolverConfig seed": lambda v: SolverConfig(max_iters=1, solver_kind="ipg", seed=v),
    "RankConstraint r": RankConstraint,
    **{
        f"prox_rank {mode} r": lambda v, mode=mode: prox_rank(SQUARE, v, mode=mode)
        for mode in ("exact", "power", "residual")
    },
    "prox_rank power_iters": lambda v: prox_rank(SQUARE, 1, mode="power", power_iters=v),
    **{
        f"prox_rank {mode} power_iters": lambda v, mode=mode: prox_rank(SQUARE, 1, mode=mode, power_iters=v)
        for mode in ("exact", "residual")
    },
    **{
        f"prox_rank {mode} seed": lambda v, mode=mode: prox_rank(SQUARE, 1, mode=mode, seed=v)
        for mode in ("exact", "power", "residual")
    },
    "prox_tracelasso_inexact inner_budget": lambda v: prox_tracelasso_inexact(
        np.array([0.5, -1.0, 2.0]), 0.5, TRACE_LASSO, inner_budget=v
    ),
    "ObservedSignMatrix n_users": lambda v: ObservedSignMatrix(v, [0], [0], [1.0]),
    **{
        f"gen_grouped_regression {arg}": lambda v, arg=arg: gen_grouped_regression(
            **{"n": 4, "d": 3, "n_groups": 1, "seed": 1, arg: v}
        )
        for arg in ("n", "d", "n_groups", "seed")
    },
    **{
        f"gen_signed_lowrank {arg}": lambda v, arg=arg: gen_signed_lowrank(
            **{"n_users": 4, "true_rank": 1, "obs_frac": 0.5, "seed": 1, arg: v}
        )
        for arg in ("n_users", "true_rank", "seed")
    },
    **{
        f"gen_correlated_design {arg}": lambda v, arg=arg: gen_correlated_design(
            **{"n": 4, "d": 3, "correlation": 0.5, "sparsity": 1, "seed": 1, arg: v}
        )
        for arg in ("n", "d", "sparsity", "seed")
    },
}


@pytest.mark.parametrize("flag", (True, np.True_))
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_counts_ranks_and_seeds_reject_bools(name, flag):
    # True == 1, so a bool passed as a count once ran as one
    COUNT_CALLS[name](1)
    COUNT_CALLS[name](np.int64(1))
    with pytest.raises(ValueError):
        COUNT_CALLS[name](flag)


@pytest.mark.parametrize("seed", (-1, 2.5))
@pytest.mark.parametrize("mode", ("exact", "power", "residual"))
def test_rank_prox_seed_is_a_non_negative_integer(mode, seed):
    # numpy's generator once refused -1 in its own words and 2.5 with a raw
    # TypeError, and only where a cold start drew from it
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        prox_rank(SQUARE, 1, mode=mode, seed=seed)


VECTOR = np.array([0.5, -1.0, 2.0])
STEP_CALLS = {
    "prox_oscar_exact": lambda g: prox_oscar_exact(VECTOR, g, 0.1, 0.1),
    "prox_oscar_inexact": lambda g: prox_oscar_inexact(VECTOR, g, 0.1, 0.1, 1e-8),
    "ProxSubproblem": lambda g: ProxSubproblem(VECTOR, g, OscarPenalty(0.1, 0.1)),
    **{
        f"prox_rank {mode}": lambda g, mode=mode: prox_rank(SQUARE, 1, mode=mode, gamma=g)
        for mode in ("exact", "power", "residual")
    },
    "prox_tracelasso_inexact": lambda g: prox_tracelasso_inexact(VECTOR, g, TRACE_LASSO),
    "SolverConfig": lambda g: SolverConfig(max_iters=1, solver_kind="ipg", gamma=g),
}


@pytest.mark.parametrize("gamma", (np.inf, np.nan, 0.0, -1.0))
@pytest.mark.parametrize("name", sorted(STEP_CALLS))
def test_step_sizes_must_be_positive_and_finite(name, gamma):
    # an infinite step once ran nan arithmetic into a failed SVD, a nan
    # OSCAR point, or a nan certified_eps that no target test could catch
    STEP_CALLS[name](0.5)
    with pytest.raises(ValueError, match=f"gamma must be positive and finite, got {gamma!r}"):
        STEP_CALLS[name](gamma)


def _tracelasso_dual():
    return prox_tracelasso_inexact(np.array([0.5, -1.0, 2.0]), 0.5, TRACE_LASSO).dual


@pytest.mark.parametrize(
    "w0",
    (
        lambda w: w[:, :-1],  # a column short
        lambda w: w.ravel(),
        lambda w: np.where(np.eye(*w.shape, dtype=bool), np.nan, w),
        lambda w: np.full_like(w, np.inf),
        lambda w: 5.0 * np.random.default_rng(0).standard_normal(w.shape),  # far outside the ball
    ),
    ids=("short", "1-D", "nan", "inf", "outside-the-ball"),
)
def test_tracelasso_warm_start_must_be_finite_and_dual_shaped(w0):
    y = np.array([0.5, -1.0, 2.0])
    dual = _tracelasso_dual()
    prox_tracelasso_inexact(y, 0.5, TRACE_LASSO, w0=dual)
    with pytest.raises(ValueError, match="w0 must be a finite array"):
        prox_tracelasso_inexact(y, 0.5, TRACE_LASSO, w0=w0(dual))


RANK_Y = np.random.default_rng(0).standard_normal((8, 6))


@pytest.mark.parametrize("mode", ("power", "residual"))
@pytest.mark.parametrize(
    "v0",
    (
        np.ones((6, 1)),  # fewer than r = 3 columns: certified a rank-1 point
        np.ones((6, 2)),
        np.ones(6),
        np.ones((8, 3)),  # rows of the wrong side
        np.full((6, 3), np.nan),
    ),
    ids=("1-column", "2-column", "1-D", "wrong-rows", "nan"),
)
def test_rank_warm_start_needs_m_rows_and_r_finite_columns(mode, v0):
    for good in (np.eye(6, 3), np.eye(6, 5)):  # r columns, or oversampled
        prox_rank(RANK_Y, 3, mode=mode, v0=good)
    for y in (RANK_Y, RANK_Y.T):  # a wide y iterates its transpose
        with pytest.raises(ValueError, match="v0 must be a finite 2-D array with 6 rows"):
            prox_rank(y, 3, mode=mode, v0=v0)
