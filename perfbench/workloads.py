"""Workload definitions and input generation for the iprox benchmark.

A workload is one application instance, generated from the benchmark seed
with `iprox.datagen` and written to disk with `iprox.dataio`, plus the list
of solver runs made on it. The program under test only ever sees the file:
every set-up goes through `iprox.bench.build_problem(data_path=...)`.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from iprox.bench import build_problem
from iprox.datagen import gen_correlated_design, gen_grouped_regression, gen_signed_lowrank
from iprox.dataio import write_regression_csv, write_sign_triplets
from iprox.penalties import L1Penalty
from iprox.solvers import EXACT_KINDS, SOLVER_KINDS

EPS_SPEC = "poly:1e-2,2"  # the CLI default schedule, eps_k = 1e-2 / k^2
INNER_MAX_ITERS = 2000  # the CLI default inner prox budget

# Twin pairs for the final-objective agreement check.
TWIN_OF = {"ipg": "pg", "aipg": "apg", "nmaipg": "nmapg"}


@dataclass(frozen=True)
class SolverRun:
    kind: str
    max_iters: int
    penalty: str = "app"  # "app": the application's penalty; "l1": its lasso twin

    @property
    def exact(self):
        return self.kind in EXACT_KINDS


@dataclass(frozen=True)
class Workload:
    name: str
    application: str  # iprox.bench application name
    generator: str  # iprox.datagen function
    params: dict  # generator arguments besides the seed
    runs: tuple  # SolverRun, in execution order
    why: str

    def input_name(self):
        return "input.txt" if self.application == "link_prediction" else "input.csv"


def _all_kinds(iters):
    return tuple(SolverRun(kind, iters) for kind in SOLVER_KINDS)


WORKLOADS = {
    "oscar": Workload(
        "oscar",
        "robust_oscar",
        "gen_grouped_regression",
        {"n": 1000, "d": 200, "n_groups": 10, "outlier_frac": 0.1, "noise_sd": 0.05},
        _all_kinds(200),
        "Oracle-bound OSCAR regression, all six kinds: oracle calls, validation, "
        "pooling and the nested pooling pre-solve of the inexact prox show here.",
    ),
    "tracelasso": Workload(
        "tracelasso",
        "robust_tracelasso",
        "gen_correlated_design",
        {"n": 150, "d": 30, "correlation": 0.9, "sparsity": 5, "noise_sd": 0.05, "outlier_frac": 0.1},
        (  # exact runs interleaved, so their time samples the whole round
            SolverRun("ipg", 14),
            SolverRun("pg", 6000, "l1"),
            SolverRun("aipg", 14),
            SolverRun("apg", 6000, "l1"),
            SolverRun("nmaipg", 14),
            SolverRun("nmapg", 6000, "l1"),
        ),
        "Prox-bound trace lasso past k=13, where the inner budget saturates and "
        "certificates miss; exact kinds run the lasso twin on the same file.",
    ),
    "linkpred": Workload(
        "linkpred",
        "link_prediction",
        "gen_signed_lowrank",
        {"n_users": 200, "true_rank": 3, "obs_frac": 0.3, "margin": 0.5},
        _all_kinds(30),
        "Linalg-bound rank-constrained link prediction on 200x200 iterates, "
        "with the exact-reference certificate of the power-mode rank prox.",
    ),
}

def write_input(workload, seed, directory):
    """Generate the workload's dataset from `seed` and write it; returns the path."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    path = Path(directory) / workload.input_name()
    p = workload.params
    if workload.generator == "gen_signed_lowrank":
        observed, _ = gen_signed_lowrank(p["n_users"], p["true_rank"], p["obs_frac"], p["margin"], seed)
        return write_sign_triplets(path, observed)
    if workload.generator == "gen_grouped_regression":
        dataset, _ = gen_grouped_regression(
            p["n"], p["d"], p["n_groups"], p["outlier_frac"], p["noise_sd"], seed,
        )
    else:
        dataset, _ = gen_correlated_design(
            p["n"], p["d"], p["correlation"], p["sparsity"], p["noise_sd"], p["outlier_frac"], seed,
        )
    return write_regression_csv(path, dataset)


def load_problem(workload, seed, path):
    """The program's set-up: read the file and build the loss/penalty pair."""
    params = {"true_rank": workload.params["true_rank"]} if workload.application == "link_prediction" else None
    return build_problem(workload.application, seed=seed, params=params, data_path=str(path))


def penalty_for(run, problem):
    if run.penalty == "l1":
        return L1Penalty(problem.regularizer.lam)
    return problem.regularizer
