"""Correctness checks on solver outputs. Each returns a list of problems;
an empty list means the check passed. A run with any problem counts as
failed."""
from __future__ import annotations

import math

from iprox.dataio import load_trace_csv

MONOTONE_KINDS = ("pg", "apg")
# Rounding slack for the non-increase check: objectives are evaluated in
# floating point, so a converged run may wobble by a few ulps.
MONOTONE_RTOL = 1e-12
TWIN_RTOL = 1e-5


def check_csv(path, rows):
    """The trace CSV reloads with load_trace_csv and matches the rows written."""
    reloaded = load_trace_csv(path)
    if reloaded != list(rows):
        return [f"{path.name}: reloaded rows differ from the rows written"]
    return []


def check_records(kind, records):
    problems = []
    for r in records:
        if not (math.isfinite(r.objective) and math.isfinite(r.certified_eps)):
            problems.append(f"{kind} k={r.k}: non-finite objective or certified_eps")
        elif r.certified_eps < 0:
            problems.append(f"{kind} k={r.k}: negative certified_eps {r.certified_eps}")
    if kind in MONOTONE_KINDS:
        for prev, cur in zip(records, records[1:]):
            if cur.objective > prev.objective + MONOTONE_RTOL * abs(prev.objective):
                problems.append(
                    f"{kind} k={cur.k}: objective rose from {prev.objective!r} to {cur.objective!r}"
                )
                break
    return problems


def check_twin(kind, final, twin_kind, twin_final):
    """An inexact kind ends within TWIN_RTOL relative of its exact twin."""
    if abs(final - twin_final) > TWIN_RTOL * abs(twin_final):
        return [f"{kind} final objective {final!r} is not within {TWIN_RTOL} of {twin_kind}'s {twin_final!r}"]
    return []


def check_same_keys(kind, key, reference_key, what):
    if key != reference_key:
        return [f"{kind}: trace key differs from the {what}"]
    return []
