#!/usr/bin/env python3
"""Print the wall time of every (application, solver kind) pair as a table,
then the work behind it as a second table.

Each cell runs build_problem(app, seed=7) at default sizes with
SolverConfig(max_iters=N, seed=7) and the default error schedule, under one
BLAS thread, and reports the median wall time of --runs solves. The second
table, after a blank line, gives the work of one more, untimed solve as
`inner / evals / grads`: the sum of inner_iters over its records, its loss
evaluations, and the gradients those evaluations computed. A CountingLoss
wrapper counts the last two; the shipped losses compute a gradient at the
first read of an evaluation's item [1], so it counts first reads. The runs are
deterministic, so every solve does the same work. The trace-lasso penalty has
no exact prox, so its exact kinds read n/a in both. Run it on two checkouts to
compare them:

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


class CountingLoss:
    """Forwards to a loss, counting its evaluations and the first read of
    each evaluation's gradient."""

    def __init__(self, loss):
        self.loss, self.evals, self.grads = loss, 0, 0

    def lipschitz(self):
        return self.loss.lipschitz()

    def eval(self, x):
        self.evals += 1
        return CountedEvaluation(self, self.loss.eval(x))


class CountedEvaluation:
    """An evaluation that reports the first read of its gradient to its loss."""

    def __init__(self, counter, evaluation):
        self.counter, self.evaluation, self.read = counter, evaluation, False

    def __getitem__(self, i):
        if i == 1 and not self.read:
            self.read = True
            self.counter.grads += 1
        return self.evaluation[i]


def cell(problem, config, runs):
    """The median wall time of `runs` solves, and the work of a counted solve."""
    counted = CountingLoss(problem.loss)
    trace = run_solver(counted, problem.regularizer, problem.x0, config)
    work = f"{sum(r.inner_iters for r in trace.records)} / {counted.evals} / {counted.grads}"
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run_solver(problem.loss, problem.regularizer, problem.x0, config)
        times.append(time.perf_counter() - start)
    return f"{1e3 * statistics.median(times):.1f} ms", work


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
