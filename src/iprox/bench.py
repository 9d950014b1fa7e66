"""Experiment orchestration: build an application instance, run solvers, emit CSV.

Each application names a loss/regularizer pairing over a seeded synthetic
dataset. All solvers in one experiment share the dataset and the zero
starting point, so their k=0 rows agree exactly. Robust applications
standardize targets before fitting, which is what makes the fixed
correntropy bandwidth of 1 meaningful across instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from .dataio import TraceRow, load_regression_csv, load_sign_triplets, trace_rows, write_trace_csv
from .linalg import check_rank
from .losses import CorrentropyLoss, MaskedLogisticLoss, SquareLoss
from .penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from .solvers import SolverAbort, run_solver

# application: (generator, its default arguments by parameter name). The
# order is the CLI's, and scripts/trace_keys.py prints in it.
_TABLE = {
    "robust_oscar": (
        gen_grouped_regression,
        {"n": 200, "d": 50, "n_groups": 5, "outlier_frac": 0.1, "noise_sd": 0.05},
    ),
    "link_prediction": (
        gen_signed_lowrank, {"n_users": 60, "true_rank": 3, "obs_frac": 0.3, "margin": 0.5},
    ),
    "robust_tracelasso": (
        gen_correlated_design,
        {"n": 150, "d": 30, "correlation": 0.9, "sparsity": 5, "noise_sd": 0.05, "outlier_frac": 0.1},
    ),
    "lasso_baseline": (
        gen_correlated_design,
        {"n": 200, "d": 50, "correlation": 0.0, "sparsity": 8, "noise_sd": 0.05, "outlier_frac": 0.0},
    ),
}
APPLICATIONS = tuple(_TABLE)


@dataclass
class Problem:
    loss: object
    regularizer: object
    x0: np.ndarray
    x_ref: np.ndarray | None = None  # ground truth on the fitted scale
    extras: dict = field(default_factory=dict)


def _standardized(dataset):
    mean = float(np.mean(dataset.targets))
    sd = float(np.std(dataset.targets))
    if sd == 0.0:
        sd = 1.0
    scaled = type(dataset)(dataset.design, (dataset.targets - mean) / sd)
    return scaled, mean, sd


def _app_params(application, params):
    """The application's default arguments updated by params; unknown names raise."""
    if application not in _TABLE:
        raise ValueError(f"unknown application {application!r}")
    defaults = _TABLE[application][1]
    unknown = set(params or {}) - set(defaults)
    if unknown:
        raise ValueError(f"parameters {sorted(unknown)} not used by {application}")
    return {**defaults, **(params or {})}


def generate(application, seed=0, params=None):
    """Seeded synthetic data of one application: (dataset, ground truth).

    The dataset is an ObservedSignMatrix for link_prediction and a
    RegressionDataset otherwise.
    """
    p = _app_params(application, params)  # rejects an unknown application first
    return _TABLE[application][0](**p, seed=seed)


def build_problem(application, seed=0, params=None, data_path=None):
    """Materialize the dataset and the loss/regularizer pair for one application.

    With data_path the dataset is read from the file, so generator parameters
    would have no effect and raise ValueError; link_prediction's true_rank
    stays allowed, as the rank bound of its constraint, and must lie in
    [1, the file's user count].
    """
    p = _app_params(application, params)
    if data_path is None:
        dataset, x_true = generate(application, seed, p)
    else:
        allowed = {"true_rank"} if application == "link_prediction" else set()
        ignored = sorted(set(params or {}) - allowed)
        if ignored:
            raise ValueError(f"parameters {ignored} have no effect on data read from {data_path}")
        loader = load_sign_triplets if application == "link_prediction" else load_regression_csv
        dataset, x_true = loader(data_path), None

    if application == "link_prediction":
        return link_prediction_problem(dataset, p["true_rank"], x_true)

    n, d = dataset.n_samples, dataset.n_features
    x0 = np.zeros(d)
    if application == "lasso_baseline":
        lam = 0.1 / math.sqrt(n)
        return Problem(SquareLoss(dataset), L1Penalty(lam), x0, x_ref=x_true)

    scaled, _, sd = _standardized(dataset)
    x_ref = None if x_true is None else x_true / sd
    loss = CorrentropyLoss(scaled, sigma=1.0)
    if application == "robust_oscar":
        lam = 0.1 / math.sqrt(n)
        return Problem(loss, OscarPenalty(lam, lam), x0, x_ref=x_ref)
    return Problem(loss, TraceLassoPenalty(0.1, scaled.design), x0, x_ref=x_ref)


def link_prediction_problem(observed, r, truth=None):
    """Masked logistic loss on an ObservedSignMatrix under rank <= r, from the
    zero n_users x n_users start. r must lie in [1, n_users]: a bad one
    raises ValueError before anything runs. iprox bench and iprox solve
    both build the problem here."""
    x0 = np.zeros((observed.n_users, observed.n_users))
    constraint = RankConstraint(r)  # checks the type first
    check_rank(x0.shape, constraint.r)
    return Problem(MaskedLogisticLoss(observed), constraint, x0, extras={"truth": truth, "observed": observed})


def run_configs(run_id, loss, penalty, x0, configs):
    """Run each config from x0: one (solver_kind, rows, error) per config, in order.

    rows are the run's trace rows and error is None when it completed, so
    its rows end in its last record's row. A run that raises keeps the rows
    of the records completed before a SolverAbort, ends in a `failed` row,
    and error is the message.
    """
    runs = []
    for config in configs:
        kind = config.solver_kind
        try:
            trace = run_solver(loss, penalty, x0, config)
        except (RuntimeError, ValueError, TypeError) as exc:  # SolverAbort is a RuntimeError
            # a SolverAbort carries its completed records as a trace does
            rows = trace_rows(run_id, kind, exc) if isinstance(exc, SolverAbort) else []
            rows.append(TraceRow(run_id, kind, len(rows), 0.0, math.nan, 0.0, 0.0, 0.0, 0, "failed"))
            runs.append((kind, rows, str(exc)))
        else:
            runs.append((kind, trace_rows(run_id, kind, trace), None))
    return runs


def run_experiment(application, configs, out_path, seed=0, data_path=None, params=None):
    """Run every config on the application's shared instance and write the trace CSV.

    Returns (runs, csv_path), runs as run_configs returns them. The
    parameters are checked before any solver runs or the file is written.
    """
    if not configs:
        raise ValueError("at least one solver config is required")
    problem = build_problem(application, seed, params, data_path)
    runs = run_configs(f"{application}-s{seed}", problem.loss, problem.regularizer, problem.x0, configs)
    return runs, write_trace_csv(out_path, [row for _, rows, _ in runs for row in rows])
