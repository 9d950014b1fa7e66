#!/usr/bin/env python3
"""Print the wall time of every (application, solver kind) pair as a table.

Each cell runs build_problem(app, seed=7) at default sizes with
SolverConfig(max_iters=N, seed=7) and the default error schedule, under one
BLAS thread, and reports the median wall time of --runs solves. The trace-lasso
penalty has no exact prox, so its exact kinds read n/a. Run it on two
checkouts to compare them:

    PYTHONPATH=src python scripts/kind_times.py --max-iters 200 --runs 5
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as the benchmark runs

import argparse
import statistics
import time

from iprox.bench import APPLICATIONS, build_problem
from iprox.solvers import EXACT_KINDS, SOLVER_KINDS, SolverConfig, run_solver

SEED = 7


def cell(problem, config, runs):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run_solver(problem.loss, problem.regularizer, problem.x0, config)
        times.append(time.perf_counter() - start)
    return f"{1e3 * statistics.median(times):.1f} ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--runs", type=int, default=5, help="solves per cell; the cell is their median")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print("| application | " + " | ".join(SOLVER_KINDS) + " |")
    print("| --- " * (len(SOLVER_KINDS) + 1) + "|")
    for app in APPLICATIONS:
        problem = build_problem(app, seed=SEED)
        cells = [
            "n/a" if app == "robust_tracelasso" and kind in EXACT_KINDS
            else cell(problem, SolverConfig(max_iters=args.max_iters, solver_kind=kind, seed=SEED), args.runs)
            for kind in SOLVER_KINDS
        ]
        print(f"| {app} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
