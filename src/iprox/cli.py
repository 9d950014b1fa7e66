"""Command line front end.

Three subcommands: `bench` runs a named application end to end and writes a
trace CSV, `gen` materializes a synthetic dataset to disk, and `solve` runs
solvers on an already-saved dataset with an explicit loss/regularizer pair.
Exit status is 0 only when every requested solver run completes.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import APPLICATIONS, generate, link_prediction_problem, run_configs, run_experiment
from .dataio import (
    load_regression_csv,
    load_sign_triplets,
    write_regression_csv,
    write_sign_triplets,
    write_trace_csv,
)
from .losses import CorrentropyLoss, SquareLoss
from .penalties import L1Penalty, OscarPenalty, TraceLassoPenalty
from .solvers import SOLVER_KINDS, ErrorSchedule, SolverConfig


# each --eps kind: the schedule constructor and the argument counts it takes
_EPS_KINDS = {
    "const": (ErrorSchedule.constant, (1,)),
    "poly": (ErrorSchedule.polynomial, (2,)),
    "adaptive": (ErrorSchedule.adaptive, (1, 2)),
}


def parse_eps_spec(text):
    """Parse `const:<c>`, `poly:<c>,<p>`, or `adaptive:<alpha>[,<floor>]`.

    Only a spec whose numbers do not parse, or are too few or too many, is
    refused as unparseable; numbers the schedule refuses are refused with
    the schedule's own message.
    """
    kind, _, rest = text.partition(":")
    if kind not in _EPS_KINDS:
        raise argparse.ArgumentTypeError(f"unknown eps schedule kind {kind!r}")
    make, counts = _EPS_KINDS[kind]
    try:
        args = [float(v) for v in rest.split(",")]
        if len(args) not in counts:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse eps spec {text!r}; "
            "expected const:<c>, poly:<c>,<p>, or adaptive:<alpha>[,<floor>]"
        ) from None
    try:
        return make(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# (flag, params key, type, help) for the generator size knobs. Every flag is
# accepted syntactically by bench/gen; semantic validation against the chosen
# application happens when the parameter set is merged.
_PARAM_FLAGS = (
    ("--n", "n", int, "sample count"),
    ("--d", "d", int, "feature count"),
    ("--groups", "n_groups", int, "number of contiguous feature groups"),
    ("--outlier-frac", "outlier_frac", float, "fraction of corrupted targets"),
    ("--noise-sd", "noise_sd", float, "additive target noise level"),
    ("--correlation", "correlation", float, "pairwise feature correlation"),
    ("--sparsity", "sparsity", int, "nonzero count in the true coefficients"),
    ("--users", "n_users", int, "user count (square sign matrix side)"),
    ("--rank", "true_rank", int, "ground-truth rank"),
    ("--obs-frac", "obs_frac", float, "fraction of observed sign entries"),
    ("--margin", "margin", float, "minimum magnitude of sampled entries"),
)


def _add_param_flags(parser):
    for flag, dest, typ, help_text in _PARAM_FLAGS:
        parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)


def _collect_params(args):
    return {dest: getattr(args, dest) for _, dest, _, _ in _PARAM_FLAGS if getattr(args, dest) is not None}


def _add_solver_flags(parser):
    parser.add_argument(
        "--solver", action="append", choices=SOLVER_KINDS, default=None,
        help="solver to run; repeat the flag to compare several (default: ipg)",
    )
    parser.add_argument("--gamma", type=float, help="step size (default 0.9/L)")
    parser.add_argument("--max-iters", type=int, default=500, help="outer iteration budget")
    parser.add_argument(
        "--eps", dest="error_schedule", metavar="EPS", type=parse_eps_spec,
        help="inexactness schedule: const:<c> | poly:<c>,<p> | adaptive:<alpha>[,<floor>]",
    )
    parser.add_argument("--delta", type=float, help="shortcut descent coefficient")
    parser.add_argument("--seed", type=int, default=0, help="dataset and solver seed")
    parser.add_argument("--inner-max-iters", type=int, help="inner budget of the trace-lasso prox only")


# solver flags whose unset value leaves SolverConfig's default in place
_CONFIG_FLAGS = ("gamma", "error_schedule", "delta", "inner_max_iters")


def _build_configs(args):
    given = {name: getattr(args, name) for name in _CONFIG_FLAGS if getattr(args, name) is not None}
    return [
        SolverConfig(max_iters=args.max_iters, solver_kind=kind, seed=args.seed, **given)
        for kind in args.solver or ["ipg"]
    ]


def _summary_line(kind, rows):
    """One run's summary from its trace rows. inner is the run's total inner
    prox work, seconds its last row's time, and misses its iterations whose
    certified_eps exceeds eps_k."""
    last = rows[-1]
    inner = sum(r.inner_iters for r in rows)
    misses = sum(r.k >= 1 and r.certified_eps > r.eps_k for r in rows)
    return (
        f"{kind}: iters={last.k} objective={last.objective:.10g} inner={inner} "
        f"seconds={last.time_s:.3f} misses={misses}"
    )


def _report(runs, csv_path):
    """Print each run's summary line (failures on stderr) and the trace CSV
    path when one was written; return the exit status."""
    for kind, rows, error in runs:
        if error is None:
            print(_summary_line(kind, rows))
        else:
            print(f"solver {kind} failed: {error}", file=sys.stderr)
    if csv_path is not None:
        print(f"wrote {csv_path}")
    return 0 if all(error is None for _, _, error in runs) else 1


def _cmd_bench(args):
    configs = _build_configs(args)  # before the generator meets a bad seed
    params = _collect_params(args)
    return _report(*run_experiment(args.application, configs, args.out, args.seed, args.data, params))


def _cmd_gen(args):
    data, _ = generate(args.application, args.seed, _collect_params(args))
    if args.application == "link_prediction":
        path = write_sign_triplets(args.out, data)
    else:
        path = write_regression_csv(args.out, data)
    print(f"wrote {path}")
    return 0


def _build_solve_problem(args):
    if args.loss == "logistic":
        if args.reg != "rank":
            raise ValueError("logistic loss works on sign matrices; use --reg rank")
        if args.rank_r is None:
            raise ValueError("--reg rank requires --rank-r")
        problem = link_prediction_problem(load_sign_triplets(args.data), args.rank_r)
        return problem.loss, problem.regularizer, problem.x0
    if args.reg == "rank":
        raise ValueError("--reg rank applies to matrix problems; use --loss logistic")
    dataset = load_regression_csv(args.data)
    if args.loss == "square":
        loss = SquareLoss(dataset)
    else:
        loss = CorrentropyLoss(dataset, sigma=args.sigma)
    if args.reg == "l1":
        penalty = L1Penalty(args.lam)
    elif args.reg == "oscar":
        penalty = OscarPenalty(args.lambda1, args.lambda2)
    else:
        penalty = TraceLassoPenalty(args.lam, dataset.design)
    return loss, penalty, np.zeros(dataset.n_features)


def _cmd_solve(args):
    run_id = f"solve-{args.loss}-{args.reg}-s{args.seed}"
    configs = _build_configs(args)
    runs = run_configs(run_id, *_build_solve_problem(args), configs)
    rows = [row for _, run_rows, _ in runs for row in run_rows]
    return _report(runs, None if args.out is None else write_trace_csv(args.out, rows))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iprox",
        description="Inexact proximal gradient benchmarks for composite problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run solvers on a named application")
    bench.add_argument("application", choices=APPLICATIONS)
    bench.add_argument("--out", required=True, help="trace CSV output path")
    bench.add_argument("--data", default=None, help="use a saved dataset instead of generating")
    _add_solver_flags(bench)
    _add_param_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    gen = sub.add_parser("gen", help="materialize a synthetic dataset")
    gen.add_argument("application", choices=APPLICATIONS)
    gen.add_argument("--out", required=True, help="dataset output path")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    _add_param_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run solvers on a saved dataset")
    solve.add_argument("--data", required=True, help="regression CSV or sign-triplet file")
    solve.add_argument("--loss", required=True, choices=("square", "correntropy", "logistic"))
    solve.add_argument("--reg", required=True, choices=("l1", "oscar", "tracelasso", "rank"))
    solve.add_argument("--lam", type=float, default=0.1, help="weight for l1/tracelasso")
    solve.add_argument("--lambda1", type=float, default=0.1, help="first OSCAR weight")
    solve.add_argument("--lambda2", type=float, default=0.1, help="pairwise OSCAR weight")
    solve.add_argument("--rank-r", type=int, default=None, help="rank bound for --reg rank")
    solve.add_argument("--sigma", type=float, default=1.0, help="correntropy bandwidth")
    solve.add_argument("--out", default=None, help="optional trace CSV output path")
    _add_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
