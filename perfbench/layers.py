"""Traced runs: spans around the public entry points of iprox's layers.

Nothing under `src/` is changed. The traced pass gives the solver a
delegating loss object and a penalty subclass whose `value` is timed, and
replaces, for the duration of the pass, the names that `iprox.solvers`,
`iprox.prox` and `iprox.bench` look up for the prox, SVD and file-reading
functions. Each span keeps its name, start, end, parent span and run id in
memory; `write_spans` writes them out once the benchmark is done.

Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

import iprox.bench
import iprox.prox
import iprox.solvers
from iprox.prox import ProxResult
from iprox.solvers import EXACT_KINDS, SOLVER_KINDS

PROX_FUNCTIONS = (
    "prox_l1", "prox_oscar_exact", "prox_oscar_inexact", "prox_rank", "prox_tracelasso_inexact",
)
LINALG_FUNCTIONS = ("truncated_svd_exact", "truncated_svd_power")
ACCELERATED_KINDS = ("apg", "aipg", "nmapg", "nmaipg")
NONMONOTONE_KINDS = ("nmapg", "nmaipg")
RTOL = 1e-6  # for solvers.iters_to_rtol6


class Span:
    __slots__ = ("id", "name", "run", "parent", "start", "end", "child_s", "info")

    def __init__(self, id_, name, run, parent):
        self.id = id_
        self.name = name
        self.run = run
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Recorder:
    """In-memory span store; `run` is the run id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.run, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, inspect=None):
        """`fn` with a span around each call; `inspect(args, kwargs, out)` fills span.info."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if inspect is not None:
                span.info = inspect(args, kwargs, out)
            return out

        return wrapper


def _prox_info(args, kwargs, out):
    info = {"eps": kwargs.get("eps_target"), "budget": kwargs.get("max_inner", kwargs.get("inner_budget"))}
    if isinstance(out, ProxResult):
        info.update(cert=out.certified_eps, inner=out.inner_iters, heuristic=out.eps_is_heuristic)
    else:
        info.update(cert=0.0, inner=0, heuristic=False)
    return info


def _rank_info(args, kwargs, out):
    info = _prox_info(args, kwargs, out)
    info["mode"] = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return info


@contextmanager
def patched(rec):
    """Route the layer entry points through `rec` until the block exits."""
    targets = [(iprox.solvers, fn, "prox." + fn) for fn in PROX_FUNCTIONS]
    targets.append((iprox.prox, "prox_oscar_exact", "prox.prox_oscar_exact"))
    targets += [(iprox.prox, fn, "linalg." + fn) for fn in LINALG_FUNCTIONS]
    targets += [(iprox.bench, fn, "dataio.load") for fn in ("load_regression_csv", "load_sign_triplets")]
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            inspect = None
            if name.startswith("prox."):
                inspect = _rank_info if attr == "prox_rank" else _prox_info
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(name, original, inspect))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TimedLoss:
    """Delegating loss whose eval and lipschitz calls are spans."""

    def __init__(self, loss, rec):
        self._loss = loss
        self.eval = rec.wrap("losses.eval", loss.eval)
        self.lipschitz = rec.wrap("losses.lipschitz", loss.lipschitz)

    def __getattr__(self, name):
        return getattr(self._loss, name)


def timed_penalty(penalty, rec):
    """A copy of `penalty` as a subclass whose value() is a span."""
    base = type(penalty)
    sub = type("Timed" + base.__name__, (base,), {"value": rec.wrap("penalties.value", base.value)})
    return sub(**{f.name: getattr(penalty, f.name) for f in dataclasses.fields(penalty)})


def _metric_table():
    table = [
        ("losses.eval_calls", "count", "lower"),
        ("losses.eval_s", "s", "lower"),
        *((f"losses.evals_per_iter.{k}", "evals/iter", "lower") for k in SOLVER_KINDS),
        ("losses.lipschitz_s", "s", "lower"),
        ("penalties.value_calls", "count", "lower"),
        ("penalties.value_s", "s", "lower"),
    ]
    for fn in PROX_FUNCTIONS:
        table += [(f"prox.{fn}.calls", "count", "lower"), (f"prox.{fn}.s", "s", "lower")]
    table += [
        ("prox.inner_iters", "count", "lower"),
        ("prox.inner_per_call", "iters/call", "lower"),
        ("prox.call_p50_s", "s", "lower"),
        ("prox.call_p90_s", "s", "lower"),
        ("prox.miss_calls", "count", "lower"),
        ("prox.budget_exhausted_calls", "count", "lower"),
        ("prox.heuristic_calls", "count", "lower"),
        ("prox.cert_s", "s", "lower"),
    ]
    for fn in LINALG_FUNCTIONS:
        table += [(f"linalg.{fn}.calls", "count", "lower"), (f"linalg.{fn}.s", "s", "lower")]
    table += [("solvers.outer_iters", "count", "lower"), ("solvers.loop_self_s", "s", "lower")]
    table += [(f"solvers.solve_s.{k}", "s", "lower") for k in SOLVER_KINDS]
    table += [(f"solvers.prox_calls_per_iter.{k}", "calls/iter", "lower") for k in SOLVER_KINDS]
    table += [(f"solvers.shortcut_frac.{k}", "ratio", "higher") for k in NONMONOTONE_KINDS]
    table += [(f"solvers.v_accepted_frac.{k}", "ratio", "lower") for k in ACCELERATED_KINDS]
    table += [(f"solvers.iters_to_rtol6.{k}", "count", "lower") for k in SOLVER_KINDS]
    table += [
        ("dataio.load_s", "s", "lower"),
        ("dataio.trace_write_s", "s", "lower"),
        ("dataio.trace_bytes", "bytes", "lower"),
        ("bench.build_problem_s", "s", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return table


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = _metric_table()


SETUP_METRICS = ("dataio.load_s", "bench.build_problem_s", "losses.lipschitz_s")


def setup_layers(rec):
    """Per-layer split of one traced set-up: file read, build_problem self time, Lipschitz bound."""
    out = dict.fromkeys(SETUP_METRICS, 0.0)
    for span in rec.spans:
        if span.name == "dataio.load":
            out["dataio.load_s"] += span.duration
        elif span.name == "bench.build_problem":
            out["bench.build_problem_s"] += span.self_s
        elif span.name == "losses.lipschitz":
            out["losses.lipschitz_s"] += span.duration
    return out


def _requested_eps(kind, records):
    """eps_k of each prox call of a run, in call order, from its trace records."""
    out = []
    for r in records[1:]:
        out.append(r.eps_k)
        if kind in ACCELERATED_KINDS and r.branch != "shortcut":
            out.append(r.eps_k)
    return out


def _first_within(records, best):
    for r in records:
        if r.objective <= best + RTOL * abs(best):
            return r.k
    return records[-1].k + 1


def solve_layers(rec, outcomes):
    """Per-layer metrics of one traced pass.

    `outcomes` are the pass's RunOutcome objects; span.run is the index of
    the outcome the span belongs to.
    """
    skip = SETUP_METRICS + ("trace_overhead",)
    m = {name: 0 for name, _, _ in LAYER_METRICS if name not in skip}
    evals = [0] * len(outcomes)
    prox_spans = [[] for _ in outcomes]
    call_s = []  # durations of the inexact kinds' prox calls
    inexact_inner = 0
    for span in rec.spans:
        name = span.name
        parent = span.parent.name if span.parent is not None else None
        if name == "losses.eval":
            m["losses.eval_calls"] += 1
            m["losses.eval_s"] += span.duration
            evals[span.run] += 1
        elif name == "penalties.value":
            m["penalties.value_calls"] += 1
            m["penalties.value_s"] += span.self_s
        elif name.startswith("linalg."):
            m[name + ".calls"] += 1
            m[name + ".s"] += span.duration
            if name == "linalg.truncated_svd_exact" and parent == "prox.prox_rank" \
                    and span.parent.info and span.parent.info["mode"] == "power":
                m["prox.cert_s"] += span.duration
        elif name.startswith("prox."):
            if parent != "solvers.run":
                if name == "prox.prox_oscar_exact" and parent == "prox.prox_oscar_inexact":
                    m["prox.cert_s"] += span.duration
                continue
            m[name + ".calls"] += 1
            m[name + ".s"] += span.self_s
            prox_spans[span.run].append(span)
            info = span.info
            m["prox.inner_iters"] += info["inner"]
            if outcomes[span.run].run.kind not in EXACT_KINDS:
                call_s.append(span.duration)
                inexact_inner += info["inner"]
            if info["budget"] is not None and info["inner"] >= info["budget"]:
                m["prox.budget_exhausted_calls"] += 1
            if info["heuristic"]:
                m["prox.heuristic_calls"] += 1
        elif name == "solvers.run":
            m["solvers.loop_self_s"] += span.self_s
            m["solvers.solve_s." + outcomes[span.run].run.kind] += span.duration
        elif name == "dataio.trace_write":
            m["dataio.trace_write_s"] += span.duration

    best = {}
    for o in outcomes:
        if o.trace is not None:
            final = o.trace.records[-1].objective
            best[o.run.penalty] = min(final, best.get(o.run.penalty, math.inf))
    for i, o in enumerate(outcomes):
        if o.trace is None:
            continue
        kind, records = o.run.kind, o.trace.records
        iters = max(len(records) - 1, 1)
        m["solvers.outer_iters"] += len(records) - 1
        m["dataio.trace_bytes"] += o.trace_bytes
        # the evaluation that scores the starting point is not an iteration's work
        m["losses.evals_per_iter." + kind] = (evals[i] - 1) / iters
        m["solvers.prox_calls_per_iter." + kind] = len(prox_spans[i]) / iters
        branches = [r.branch for r in records[1:]]
        if kind in NONMONOTONE_KINDS:
            m["solvers.shortcut_frac." + kind] = branches.count("shortcut") / iters
        if kind in ACCELERATED_KINDS:
            m["solvers.v_accepted_frac." + kind] = branches.count("v-accepted") / iters
        m["solvers.iters_to_rtol6." + kind] = _first_within(records, best[o.run.penalty])
        requested = _requested_eps(kind, records)
        aligned = len(requested) == len(prox_spans[i])
        for j, span in enumerate(prox_spans[i]):
            eps = span.info["eps"]
            if eps is None and aligned:
                eps = requested[j]
            if eps is not None and span.info["cert"] > eps:
                m["prox.miss_calls"] += 1
    if call_s:
        m["prox.inner_per_call"] = inexact_inner / len(call_s)
        m["prox.call_p50_s"] = float(np.percentile(call_s, 50))
        m["prox.call_p90_s"] = float(np.percentile(call_s, 90))
    return m


def write_spans(path, rec):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "name", "run", "parent", "start", "end"))
        for s in rec.spans:
            parent = "" if s.parent is None else s.parent.id
            run = "" if s.run is None else s.run
            writer.writerow((s.id, s.name, run, parent, f"{s.start:.9f}", f"{s.end:.9f}"))
