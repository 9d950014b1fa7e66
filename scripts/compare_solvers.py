#!/usr/bin/env python3
"""Run every solver on one application and summarize the convergence traces.

Writes the per-iteration trace CSV next to the chosen output path and prints
a small table: final objective, iterations, total inner prox work, misses
(records whose certified_eps exceeds their eps_k) and wall time per solver.
The default application, link prediction, runs all six kinds, and its
inexact kinds do less prox work than their exact twins.
"""
import argparse
import sys

from iprox.bench import APPLICATIONS, run_experiment
from iprox.cli import parse_eps_spec
from iprox.solvers import SOLVER_KINDS, EXACT_KINDS, SolverConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--application", choices=APPLICATIONS, default="link_prediction")
    parser.add_argument("--max-iters", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eps", type=parse_eps_spec, help="error schedule (default: SolverConfig's)")
    parser.add_argument("--out", default="solver_comparison.csv")
    args = parser.parse_args()

    # exact kinds cannot run the trace-lasso application; skip them there
    kinds = list(SOLVER_KINDS)
    if args.application == "robust_tracelasso":
        kinds = [k for k in kinds if k not in EXACT_KINDS]

    given = {} if args.eps is None else {"error_schedule": args.eps}
    configs = [
        SolverConfig(max_iters=args.max_iters, solver_kind=kind, seed=args.seed, **given) for kind in kinds
    ]
    runs, csv_path = run_experiment(args.application, configs, args.out, seed=args.seed)

    print(f"{'solver':<8} {'iters':>6} {'objective':>16} {'inner':>9} {'misses':>6} {'seconds':>8}")
    for kind, rows, error in runs:
        if error is not None:
            print(f"{kind:<8} failed: {error}")
            continue
        last = rows[-1]
        inner = sum(r.inner_iters for r in rows)
        misses = sum(r.certified_eps > r.eps_k for r in rows)
        print(f"{kind:<8} {last.k:>6} {last.objective:>16.8f} {inner:>9} {misses:>6} {last.time_s:>8.2f}")
    print(f"\ntrace written to {csv_path}")
    return 0 if all(error is None for _, _, error in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
