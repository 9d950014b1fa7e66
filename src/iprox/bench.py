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
from pathlib import Path

import numpy as np

from .datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from .dataio import TraceRow, load_regression_csv, load_sign_triplets, trace_rows, write_trace_csv
from .losses import CorrentropyLoss, MaskedLogisticLoss, SquareLoss
from .penalties import L1Penalty, OscarPenalty, RankConstraint, TraceLassoPenalty
from .solvers import IterationTrace, SolverAbort, run_solver

APPLICATIONS = ("robust_oscar", "link_prediction", "robust_tracelasso", "lasso_baseline")

APP_DEFAULTS = {
    "robust_oscar": {"n": 200, "d": 50, "n_groups": 5, "outlier_frac": 0.1, "noise_sd": 0.05},
    "lasso_baseline": {
        "n": 200, "d": 50, "correlation": 0.0, "sparsity": 8,
        "noise_sd": 0.05, "outlier_frac": 0.0,
    },
    "robust_tracelasso": {
        "n": 150, "d": 30, "correlation": 0.9, "sparsity": 5,
        "noise_sd": 0.05, "outlier_frac": 0.1,
    },
    "link_prediction": {"n_users": 60, "true_rank": 3, "obs_frac": 0.3, "margin": 0.5},
}


@dataclass
class ExperimentSpec:
    application: str
    configs: list
    out_path: str
    seed: int = 0
    data_path: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _app_params(self.application, self.params)
        if not self.configs:
            raise ValueError("at least one solver config is required")


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
    """APP_DEFAULTS of the application updated by params; unknown names raise."""
    if application not in APPLICATIONS:
        raise ValueError(f"unknown application {application!r}")
    unknown = set(params or {}) - set(APP_DEFAULTS[application])
    if unknown:
        raise ValueError(f"parameters {sorted(unknown)} not used by {application}")
    return {**APP_DEFAULTS[application], **(params or {})}


def generate(application, seed=0, params=None):
    """Seeded synthetic data of one application: (dataset, ground truth).

    The dataset is an ObservedSignMatrix for link_prediction and a
    RegressionDataset otherwise.
    """
    p = _app_params(application, params)
    if application == "link_prediction":
        return gen_signed_lowrank(p["n_users"], p["true_rank"], p["obs_frac"], p["margin"], seed)
    if application == "robust_oscar":
        return gen_grouped_regression(
            p["n"], p["d"], p["n_groups"], p["outlier_frac"], p["noise_sd"], seed,
        )
    return gen_correlated_design(
        p["n"], p["d"], p["correlation"], p["sparsity"], p["noise_sd"], p["outlier_frac"], seed,
    )


def build_problem(application, seed=0, params=None, data_path=None):
    """Materialize the dataset and the loss/regularizer pair for one application.

    With data_path the dataset is read from the file, so generator parameters
    would have no effect and raise ValueError; link_prediction's true_rank
    stays allowed, as the rank bound of its constraint.
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
        x0 = np.zeros((dataset.n_users, dataset.n_users))
        return Problem(
            MaskedLogisticLoss(dataset), RankConstraint(p["true_rank"]), x0,
            extras={"truth": x_true, "observed": dataset},
        )

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


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    problem: Problem
    traces: list  # (solver_kind, IterationTrace) in spec order, successful runs
    failures: list  # (solver_kind, message)
    csv_path: Path

    @property
    def ok(self):
        return not self.failures


def run_to_rows(run_id, loss, penalty, x0, config):
    """Run one solver and flatten it into trace rows.

    Returns (trace, rows, None) on success and (None, rows, message) when the
    run raises: rows then keep the records completed before a SolverAbort and
    end with a `failed` row.
    """
    kind = config.solver_kind
    try:
        trace = run_solver(loss, penalty, x0, config)
    except (RuntimeError, ValueError, TypeError) as exc:  # SolverAbort is a RuntimeError
        records = exc.records if isinstance(exc, SolverAbort) else []
        rows = trace_rows(run_id, kind, IterationTrace(kind, float("nan"), config.seed, records, x0))
        rows.append(TraceRow(run_id, kind, len(records), 0.0, float("nan"), 0.0, 0.0, 0.0, 0, "failed"))
        return None, rows, str(exc)
    return trace, trace_rows(run_id, kind, trace), None


def run_configs(run_id, loss, penalty, x0, configs):
    """Run each config from x0 in order: (rows, traces, failures).

    rows are every run's trace rows, traces the (solver_kind, IterationTrace)
    of the runs that completed, failures the (solver_kind, message) of those
    that raised. A solver abort is recorded as a final `failed` row for that
    solver; completed rows are preserved either way.
    """
    rows, traces, failures = [], [], []
    for config in configs:
        trace, run_rows, error = run_to_rows(run_id, loss, penalty, x0, config)
        rows.extend(run_rows)
        if error is None:
            traces.append((config.solver_kind, trace))
        else:
            failures.append((config.solver_kind, error))
    return rows, traces, failures


def run_experiment(spec):
    """Run every configured solver on the shared instance and write the trace CSV."""
    problem = build_problem(spec.application, spec.seed, spec.params, spec.data_path)
    rows, traces, failures = run_configs(
        f"{spec.application}-s{spec.seed}", problem.loss, problem.regularizer, problem.x0, spec.configs,
    )
    path = write_trace_csv(spec.out_path, rows)
    return ExperimentResult(spec, problem, traces, failures, path)
