#!/usr/bin/env python3
"""Print one sha256 per (application, solver kind) pair of a fixed run.

Each pair runs as build_problem(app, seed=7) at default sizes with
SolverConfig(max_iters=N, seed=7) under one BLAS thread. The hash covers the
packed numbers of IterationTrace.key(), its branch labels joined by newlines,
and the final point's bytes, so two builds print the same line for a pair
exactly when their traces are bit-identical. Diff the output of two checkouts
to compare them:

    PYTHONPATH=src python scripts/trace_keys.py --max-iters 200
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: BLAS sums change with the thread count

import argparse
import hashlib

from iprox.bench import APPLICATIONS, build_problem
from iprox.solvers import EXACT_KINDS, SOLVER_KINDS, SolverConfig, run_solver

SEED = 7


def trace_hash(trace):
    numbers, branches = trace.key()
    digest = hashlib.sha256(numbers)
    digest.update("\n".join(branches).encode())
    digest.update(trace.final_point.tobytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-iters", type=int, default=200)
    args = parser.parse_args()
    for app in APPLICATIONS:
        problem = build_problem(app, seed=SEED)
        for kind in SOLVER_KINDS:
            if app == "robust_tracelasso" and kind in EXACT_KINDS:
                continue  # the trace-lasso penalty has no exact prox
            config = SolverConfig(max_iters=args.max_iters, solver_kind=kind, seed=SEED)
            trace = run_solver(problem.loss, problem.regularizer, problem.x0, config)
            print(f"{app} {kind} {trace_hash(trace)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
