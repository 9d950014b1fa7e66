"""The benchmark proper: set-up, measuring rounds, checks and the report.

Imported by run.py once the checkout's iprox is on the path.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from checks import check_csv, check_records, check_same_keys, check_twin
from iprox.cli import parse_eps_spec
from iprox.dataio import trace_rows, write_trace_csv
from iprox.solvers import SolverAbort, SolverConfig, run_solver
from layers import (
    LAYER_METRICS,
    Recorder,
    TimedLoss,
    patched,
    setup_layers,
    solve_layers,
    timed_penalty,
    write_spans,
)
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_BLOCK_SECONDS = 0.1
# Inputs per run, generated from seeds derived from --seed. The solve-time
# metrics average over them, which damps the variation of work across seeds.
INSTANCES = 3
RUN_ID = "perfbench"

# (name, unit) of the end-to-end metrics, in report order.
E2E_METRICS = (
    ("setup_s", "s"),
    ("exact_solve_s", "s"),
    ("inexact_solve_s", "s"),
    ("final_objective", "objective"),
    ("prox_met_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class RunOutcome:
    run: object  # workloads.SolverRun
    # IterationTrace, kept only until its round is checked and summarised,
    # so that the process's memory does not grow with the number of rounds
    trace: object = None
    final: float | None = None  # final objective; None when the run raised
    iters: int = 0  # outer iterations
    misses: int = 0  # iterations whose accepted point has certified_eps > eps_k
    first_miss: object = "none"  # k of the first such iteration
    solve_s: float = 0.0  # wall time of run_solver, trace rows and CSV write
    scaled_s: float = 0.0  # solve_s at the probe's reference speed
    trace_bytes: int = 0
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.problems)

    @property
    def ran(self):
        return self.final is not None

    def keep_trace(self, trace):
        records = trace.records
        self.trace = trace
        self.final = records[-1].objective
        self.iters = len(records) - 1
        missed = [r.k for r in records[1:] if r.certified_eps > r.eps_k]
        self.misses = len(missed)
        self.first_miss = missed[0] if missed else "none"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def setup_block(workload, seed, path, traced, probe):
    """Set up repeatedly for at least SETUP_BLOCK_SECONDS (at least once).

    A set-up reads the input file, builds the problem and computes the
    first Lipschitz bound. Returns the last problem, each set-up's wall time,
    the block's probe factor and, when traced, each set-up's recorder.
    """
    times, recs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SETUP_BLOCK_SECONDS:
        t0 = time.perf_counter()
        if traced:
            rec = Recorder()
            with patched(rec):
                with rec.span("bench.build_problem"):
                    problem = workloads.load_problem(workload, seed, path)
                TimedLoss(problem.loss, rec).lipschitz()
            recs.append(rec)
        else:
            problem = workloads.load_problem(workload, seed, path)
            problem.loss.lipschitz()
        times.append(time.perf_counter() - t0)
    return problem, times, probe.factor(), recs


def solve_pass(workload, problem, seed, workdir, tag, probe, rec=None):
    """Run every solver of the workload once; time each run and check its output."""
    schedule = parse_eps_spec(workloads.EPS_SPEC)
    span = rec.span if rec is not None else (lambda name: nullcontext())
    outcomes, written = [], []
    for i, run in enumerate(workload.runs):
        config = SolverConfig(
            max_iters=run.max_iters, solver_kind=run.kind, error_schedule=schedule,
            seed=seed, inner_max_iters=workloads.INNER_MAX_ITERS,
        )
        loss, penalty = problem.loss, workloads.penalty_for(run, problem)
        if rec is not None:
            loss, penalty = TimedLoss(loss, rec), timed_penalty(penalty, rec)
            rec.run = i
        out = RunOutcome(run)
        path = Path(workdir) / f"{tag}-{i}-{run.kind}.csv"
        rows = None
        t0 = time.perf_counter()
        try:
            with span("solvers.run"):
                trace = run_solver(loss, penalty, problem.x0, config)
            with span("dataio.trace_write"):
                rows = trace_rows(RUN_ID, run.kind, trace)
                write_trace_csv(path, rows)
            out.solve_s = time.perf_counter() - t0
            out.keep_trace(trace)
        except (SolverAbort, RuntimeError, ValueError, TypeError, OSError) as exc:
            out.problems.append(f"{run.kind}: {type(exc).__name__}: {exc}")
        out.scaled_s = out.solve_s * probe.factor()
        outcomes.append(out)
        written.append((path, rows))
    if rec is not None:
        rec.run = None
    for out, (path, rows) in zip(outcomes, written):
        if out.ran:
            out.trace_bytes = path.stat().st_size
            out.problems += check_csv(path, rows) + check_records(out.run.kind, out.trace.records)
    finals = {(o.run.kind, o.run.penalty): o.final for o in outcomes if o.ran}
    for out in outcomes:
        twin = (workloads.TWIN_OF.get(out.run.kind), out.run.penalty)
        if out.ran and twin in finals:
            out.problems += check_twin(out.run.kind, finals[out.run.kind, out.run.penalty], twin[0], finals[twin])
    return outcomes


def traced_pass(workload, problem, seed, workdir, tag, probe):
    rec = Recorder()
    with patched(rec):
        outcomes = solve_pass(workload, problem, seed, workdir, tag, probe, rec)
    return outcomes, rec


@dataclass
class Round:
    instance: int  # index of the input this round solved
    plain: list = None  # RunOutcome of the untraced pass
    traced: list | None = None  # RunOutcome of the traced pass
    layers: dict | None = None  # per-layer metrics of the traced pass


@dataclass
class Measurement:
    probe: SpeedProbe
    rounds: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)  # at the probe's reference speed
    setup_wall: list = field(default_factory=list)
    setup_layers: list = field(default_factory=list)  # per-layer metrics of each traced set-up
    last_rec: Recorder | None = None  # spans of the last traced pass, written out at the end
    elapsed: float = 0.0

    def outcomes(self):
        return [o for r in self.rounds for o in r.plain + (r.traced or [])]


def measure(workload, inputs, workdir, seconds, traced):
    """Measure rounds until the next one would overrun `seconds`.

    Round n solves input n mod len(inputs); untraced, every input gets at
    least one round. A round is a block of set-ups, then an untraced pass;
    traced, the round also makes a traced pass, before or after the
    untraced one in turn. Spreading the set-ups over the period samples
    set-up time the same way as solve time.

    Each round is checked and summarised as soon as it ends, and its
    problem, traces and spans are dropped, so that peak_rss_mb does not
    grow with the number of rounds that fit in `seconds`.
    """
    m = Measurement(probe=SpeedProbe())
    min_rounds = 1 if traced else len(inputs)
    first_keys = {}  # instance -> trace keys of the untraced runs of its first round
    start = time.perf_counter()
    while True:
        n = len(m.rounds)
        j = n % len(inputs)
        seed, path = inputs[j]
        problem, times, factor, recs = setup_block(workload, seed, path, traced, m.probe)
        m.setup_wall += times
        m.setup_times += [t * factor for t in times]
        m.setup_layers += [setup_layers(rec) for rec in recs]
        traced_first = traced and n % 2 == 1
        rnd = Round(j)
        if traced_first:
            rnd.traced, m.last_rec = traced_pass(workload, problem, seed, workdir, f"t{n}", m.probe)
        rnd.plain = solve_pass(workload, problem, seed, workdir, f"u{n}", m.probe)
        if traced and not traced_first:
            rnd.traced, m.last_rec = traced_pass(workload, problem, seed, workdir, f"t{n}", m.probe)
        keys = [out.trace.key() if out.ran else None for out in rnd.plain]
        first = first_keys.setdefault(j, keys)
        for i, out in enumerate(rnd.plain):
            if keys[i] is None:
                continue
            if first[i] is not None:
                out.problems += check_same_keys(out.run.kind, keys[i], first[i], "first round's on this input")
            if rnd.traced and rnd.traced[i].ran:
                rnd.traced[i].problems += check_same_keys(
                    out.run.kind, rnd.traced[i].trace.key(), keys[i], "untraced run's")
        if rnd.traced and all(o.ran for o in rnd.plain + rnd.traced):
            rnd.layers = solve_layers(m.last_rec, rnd.traced)
            rnd.layers["trace_overhead"] = (
                sum(o.scaled_s for o in rnd.traced) / sum(o.scaled_s for o in rnd.plain) - 1.0)
        for out in rnd.plain + (rnd.traced or []):
            out.trace = None
        del problem
        m.rounds.append(rnd)
        m.elapsed = time.perf_counter() - start
        if len(m.rounds) >= min_rounds and m.elapsed + m.elapsed / len(m.rounds) > seconds:
            return m


def _solve_time(outcomes, exact, attr="scaled_s"):
    if any(not o.ran for o in outcomes if o.run.exact == exact):
        return None
    return sum(getattr(o, attr) for o in outcomes if o.run.exact == exact)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _instance_mean(m, fn):
    """Mean over inputs of the median over that input's rounds of fn(untraced outcomes)."""
    by_instance = {}
    for r in m.rounds:
        by_instance.setdefault(r.instance, []).append(fn(r.plain))
    medians = [_median(v) for v in by_instance.values()]
    return None if None in medians else statistics.fmean(medians)


def end_to_end(m):
    """End-to-end metrics, and the share of prox misses that prox_met_frac complements."""
    firsts = [o for r in m.rounds[:INSTANCES] for o in r.plain if o.ran]
    app_runs = [o for o in firsts if o.run.penalty == "app"]
    inexact = [o for o in firsts if not o.run.exact]
    iters = sum(o.iters for o in inexact)
    miss_frac = sum(o.misses for o in inexact) / iters if iters else None
    values = {
        "setup_s": statistics.median(m.setup_times),
        "exact_solve_s": _instance_mean(m, lambda p: _solve_time(p, True)),
        "inexact_solve_s": _instance_mean(m, lambda p: _solve_time(p, False)),
        "final_objective": statistics.fmean(o.final for o in app_runs) if app_runs else None,
        "prox_met_frac": None if miss_frac is None else 1.0 - miss_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "setup_s": statistics.median(m.setup_wall),
        "exact_solve_s": _instance_mean(m, lambda p: _solve_time(p, True, "solve_s")),
        "inexact_solve_s": _instance_mean(m, lambda p: _solve_time(p, False, "solve_s")),
    }
    return values, wall, miss_frac


def per_layer(m):
    """Median over set-ups and traced passes of each per-layer metric."""
    samples = m.setup_layers + [r.layers for r in m.rounds if r.layers is not None]
    return {name: _median(s[name] for s in samples if name in s) for name, _, _ in LAYER_METRICS}


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="input and solver seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring period")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    print("env " + json.dumps(environment()), flush=True)

    workdir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = []
        for j in range(INSTANCES):
            seed = args.seed * INSTANCES + j
            inputs.append((seed, workloads.write_input(workload, seed, workdir / f"input{j}")))
        m = measure(workload, inputs, workdir, args.seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = m.outcomes()
    failed = [o for o in outcomes if o.failed]
    for problem_text in dict.fromkeys(p for o in failed for p in o.problems):
        print(f"FAIL {workload.name} {problem_text}", file=sys.stderr)
    fail_frac = len(failed) / len(outcomes)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(m.rounds)} rounds, {len(outcomes)} solver runs, {len(failed)} failed, "
          f"{m.elapsed:.2f} s measured, {len(m.setup_times)} set-ups, "
          f"speed factor median {_fmt(statistics.median(m.probe.factors))} "
          f"(range {_fmt(min(m.probe.factors))} to {_fmt(max(m.probe.factors))})")

    if traced:
        values = per_layer(m)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        write_spans(WORK / f"spans-{workload.name}-s{args.seed}.csv", m.last_rec)
    else:
        values, wall, miss_frac = end_to_end(m)
        units = dict(E2E_METRICS)
        for name, value in wall.items():
            print(f"  {'wall ' + name + ' (unscaled)':<40} {_fmt(value):>14} s")
        print(f"  {'prox_miss_frac':<40} {_fmt(miss_frac):>14} ratio")
        print("  first k with certified_eps > eps_k, per input: " + "; ".join(
            ", ".join(f"{o.run.kind} {o.first_miss}" for o in r.plain if not o.run.exact and o.ran)
            for r in m.rounds[:INSTANCES]))
    print(f"  {'fail_frac':<40} {_fmt(fail_frac):>14} ratio")
    for name, unit in units.items():
        print(f"  {name:<40} {_fmt(values[name]):>14} {unit}")

    correct = not failed and all(v is not None for v in values.values())
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
