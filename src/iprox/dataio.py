"""File formats: regression CSV, sign triplets, and solver trace CSV.

Regression CSV: header row, first column `target`, remaining columns
features, comma separated. Sign triplets: first line the user count, then
whitespace-separated `i j s` per line with 0-based indices and s in {+1,-1}.
Trace CSV: the exact header in TRACE_HEADER, floats written with 17
significant digits so values round-trip losslessly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import ObservedSignMatrix, RegressionDataset

TRACE_HEADER = (
    "run_id",
    "solver",
    "k",
    "time_s",
    "objective",
    "step_norm_sq",
    "eps_k",
    "certified_eps",
    "inner_iters",
    "branch",
)


def _fmt(x):
    return f"{float(x):.17g}"


def write_regression_csv(path, dataset):
    path = Path(path)
    n_features = dataset.design.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target"] + [f"f{j}" for j in range(n_features)])
        for target, row in zip(dataset.targets, dataset.design):
            writer.writerow([_fmt(target)] + [_fmt(v) for v in row])
    return path


def load_regression_csv(path):
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != "target":
            raise ValueError(f"{path}: first column must be named 'target'")
        width = len(header)
        if width < 2:
            raise ValueError(f"{path}: no feature columns")
        targets = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            targets.append(values[0])
            rows.append(values[1:])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return RegressionDataset(np.array(rows), np.array(targets))


def write_sign_triplets(path, observed):
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{observed.n_users}\n")
        for i, j, s in zip(observed.rows, observed.cols, observed.signs):
            fh.write(f"{int(i)} {int(j)} {int(s):+d}\n")
    return path


def load_sign_triplets(path):
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        try:
            n_users = int(first.strip())
        except ValueError:
            raise ValueError(f"{path}: line 1: expected the user count") from None
        rows, cols, signs = [], [], []
        seen = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'i j s'")
            try:
                i, j, s = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer field") from None
            if s not in (1, -1):
                raise ValueError(f"{path}: line {lineno}: sign must be +1 or -1")
            if (i, j) in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate entry ({i}, {j}) first seen on line {seen[i, j]}"
                )
            seen[i, j] = lineno
            rows.append(i)
            cols.append(j)
            signs.append(float(s))
    if not rows:
        raise ValueError(f"{path}: no observations")
    return ObservedSignMatrix(n_users, np.array(rows), np.array(cols), np.array(signs))


@dataclass(frozen=True, slots=True)
class TraceRow:
    run_id: str
    solver: str
    k: int
    time_s: float
    objective: float
    step_norm_sq: float
    eps_k: float
    certified_eps: float
    inner_iters: int
    branch: str


def trace_rows(run_id, solver, trace):
    """Flatten an IterationTrace into TraceRow records."""
    return [
        TraceRow(
            run_id, solver, r.k, r.wall_seconds, r.objective, r.step_norm_sq,
            r.eps_k, r.certified_eps, r.inner_iters, r.branch,
        )
        for r in trace.records
    ]


def write_trace_csv(path, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(
            (
                r.run_id, r.solver, str(r.k), "%.17g" % r.time_s, "%.17g" % r.objective,
                "%.17g" % r.step_norm_sq, "%.17g" % r.eps_k, "%.17g" % r.certified_eps,
                str(r.inner_iters), r.branch,
            )
            for r in rows
        )
    return path


def load_trace_csv(path):
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if tuple(header) != TRACE_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_HEADER):
                raise ValueError(f"{path}: line {lineno}: expected {len(TRACE_HEADER)} fields")
            try:
                out.append(
                    TraceRow(
                        row[0], row[1], int(row[2]), float(row[3]), float(row[4]),
                        float(row[5]), float(row[6]), float(row[7]), int(row[8]), row[9],
                    )
                )
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed row") from None
    return out
