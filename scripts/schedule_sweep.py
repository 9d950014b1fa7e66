#!/usr/bin/env python3
"""Sweep inexactness schedules and report the accuracy/work tradeoff.

For each schedule, runs the accelerated inexact solver on the robust trace
lasso instance and reports the final objective, the total inner prox
iterations spent, and the largest certified prox error along the run. The
trace-lasso prox has no closed form, so the baseline is the same solver with
every prox solved to 1e-10, the near-exact twin. Slowly decaying schedules
spend less inner work per step but stall further from the baseline
objective; fast-decaying ones approach it at higher cost.
"""
import argparse
import sys

from iprox.bench import build_problem
from iprox.solvers import ErrorSchedule, SolverConfig, run_solver

SCHEDULES = [
    ("const 1e-2", ErrorSchedule.constant(1e-2)),
    ("const 1e-4", ErrorSchedule.constant(1e-4)),
    ("poly c/k^1", ErrorSchedule.polynomial(1e-2, 1.0)),
    ("poly c/k^2", ErrorSchedule.polynomial(1e-2, 2.0)),
    ("poly c/k^3", ErrorSchedule.polynomial(1e-2, 3.0)),
    ("adaptive", None),  # alpha filled in from the instance constants
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-iters", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, help="sample count (default: the application's)")
    parser.add_argument("--d", type=int, help="feature count (default: the application's)")
    args = parser.parse_args()

    params = {name: value for name, value in (("n", args.n), ("d", args.d)) if value is not None}
    prob = build_problem("robust_tracelasso", seed=args.seed, params=params)
    exact = run_solver(
        prob.loss, prob.regularizer, prob.x0,
        SolverConfig(max_iters=args.max_iters, solver_kind="aipg", error_schedule=ErrorSchedule.constant(1e-10)),
    )
    f_exact = exact.records[-1].objective
    gamma = exact.gamma  # the solvers' default step, which every run here takes
    alpha = 0.5 * (1.0 / (2.0 * gamma) - prob.loss.lipschitz() / 2.0)
    print(f"exact accelerated baseline: objective {f_exact:.10f} (aipg at const:1e-10)\n")
    print(f"{'schedule':<12} {'objective':>16} {'gap to exact':>14} {'inner':>9} {'max cert':>10}")
    for label, schedule in SCHEDULES:
        if schedule is None:
            schedule = ErrorSchedule.adaptive(alpha)
        trace = run_solver(
            prob.loss, prob.regularizer, prob.x0,
            SolverConfig(max_iters=args.max_iters, solver_kind="aipg", error_schedule=schedule),
        )
        last = trace.records[-1]
        inner = sum(r.inner_iters for r in trace.records)
        worst_cert = max(r.certified_eps for r in trace.records)
        print(f"{label:<12} {last.objective:>16.10f} {last.objective - f_exact:>14.2e} "
              f"{inner:>9} {worst_cert:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
