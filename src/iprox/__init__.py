"""Inexact proximal gradient methods for composite objectives.

The library solves min_x g(x) + h(x) where g is smooth (possibly
non-convex) and the prox of h may only be computable approximately. Prox
operators return certified error bounds, solvers accept inexactness
schedules, and the bench layer reproduces the shipped applications end to
end.
"""
from .bench import APPLICATIONS, build_problem, run_experiment
from .datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from .dataio import (
    TRACE_HEADER,
    TraceRow,
    load_regression_csv,
    load_sign_triplets,
    load_trace_csv,
    write_regression_csv,
    write_sign_triplets,
    write_trace_csv,
)
from .losses import (
    CorrentropyLoss,
    MaskedLogisticLoss,
    ObservedSignMatrix,
    RegressionDataset,
    SquareLoss,
)
from .penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from .prox import (
    ProxResult,
    ProxSubproblem,
    oscar_dual_gap,
    prox_l1,
    prox_oscar_exact,
    prox_oscar_inexact,
    prox_rank,
    prox_tracelasso_inexact,
)
from .solvers import (
    EXACT_KINDS,
    SOLVER_KINDS,
    ErrorSchedule,
    IterationRecord,
    IterationTrace,
    SolverAbort,
    SolverConfig,
    extrapolate,
    momentum_next,
    run_solver,
    schedule_eps,
)

__all__ = [
    "APPLICATIONS",
    "CorrentropyLoss",
    "EXACT_KINDS",
    "ErrorSchedule",
    "IterationRecord",
    "IterationTrace",
    "L1Penalty",
    "MaskedLogisticLoss",
    "ObservedSignMatrix",
    "OscarPenalty",
    "ProxResult",
    "ProxSubproblem",
    "RankConstraint",
    "RegressionDataset",
    "SOLVER_KINDS",
    "SolverAbort",
    "SolverConfig",
    "SquareLoss",
    "TRACE_HEADER",
    "TraceLassoPenalty",
    "TraceRow",
    "build_problem",
    "extrapolate",
    "gen_correlated_design",
    "gen_grouped_regression",
    "gen_signed_lowrank",
    "load_regression_csv",
    "load_sign_triplets",
    "load_trace_csv",
    "momentum_next",
    "oscar_dual_gap",
    "prox_l1",
    "prox_oscar_exact",
    "prox_oscar_inexact",
    "prox_rank",
    "prox_tracelasso_inexact",
    "run_experiment",
    "run_solver",
    "schedule_eps",
    "write_regression_csv",
    "write_sign_triplets",
    "write_trace_csv",
]
