#!/usr/bin/env python3
"""Print the wall time of every (application, solver kind) pair as a table,
then the work behind it as a second table.

Each cell runs build_problem(app, seed=7) at default sizes with
SolverConfig(max_iters=N, seed=7) and the default error schedule, under one
BLAS thread, and reports the median wall time of --runs solves. The second
table, after a blank line, gives the sum of inner_iters over the records of
each cell's first solve; the runs are deterministic, so every solve gives the
same sum. The trace-lasso penalty has no exact prox, so its exact kinds read
n/a in both. Run it on two checkouts to compare them:

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
    """The median wall time of `runs` solves, and the first solve's inner iterations."""
    times, inner = [], None
    for _ in range(runs):
        start = time.perf_counter()
        trace = run_solver(problem.loss, problem.regularizer, problem.x0, config)
        times.append(time.perf_counter() - start)
        if inner is None:
            inner = sum(r.inner_iters for r in trace.records)
    return f"{1e3 * statistics.median(times):.1f} ms", str(inner)


def header():
    print("| application | " + " | ".join(SOLVER_KINDS) + " |")
    print("| --- " * (len(SOLVER_KINDS) + 1) + "|")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--runs", type=int, default=5, help="solves per cell; the cell is their median")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    header()
    work = []
    for app in APPLICATIONS:
        problem = build_problem(app, seed=SEED)
        cells = [
            ("n/a", "n/a") if app == "robust_tracelasso" and kind in EXACT_KINDS
            else cell(problem, SolverConfig(max_iters=args.max_iters, solver_kind=kind, seed=SEED), args.runs)
            for kind in SOLVER_KINDS
        ]
        print(f"| {app} | " + " | ".join(t for t, _ in cells) + " |")
        work.append(f"| {app} | " + " | ".join(n for _, n in cells) + " |")
    print()
    header()
    print("\n".join(work))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
