"""File formats: regression CSV, sign triplets, and solver trace CSV.

Regression CSV: header row, first column `target`, remaining columns
features, comma separated. Sign triplets: first line the user count, then
whitespace-separated `i j s` per line with 0-based indices and s in {+1,-1}.
Trace CSV: the exact header in TRACE_HEADER, floats written with 17
significant digits so values round-trip losslessly.

The regression CSV body and the sign triplets after line 1 are parsed by
numpy's C reader (`np.loadtxt` on the open file, streamed line by line).
Where it refuses a file (it raises or warns, a CSV body line gives no row,
or the dataset rejects the arrays), a per-line Python loop reads the file
again: it names the first faulty line, or loads what only Python's
parsers accept (quoted CSV fields, `1_0`, non-ASCII digits), so every file
loads to the same arrays either way. numpy's float parsing was checked
bit-identical to float() on numpy 2.4.6 only.
"""
from __future__ import annotations

import csv
import io
import warnings
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


# Values formatted per write: the writers fill one %-template per chunk of
# rows, with neither a per-value Python loop nor a whole-file string.
_CHUNK_VALUES = 1 << 11


def _write_rows(fh, line, *columns):
    """Write `line`, the %-template of one row, once per row of the columns
    (equal-length 1-d arrays or 2-d blocks), a chunk of rows per write."""
    step = max(1, _CHUNK_VALUES // line.count("%"))
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([column[start:start + step] for column in columns])
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_regression_csv(path, dataset):
    path = Path(path)
    n_features = dataset.design.shape[1]
    with path.open("w", newline="") as fh:
        fh.write(",".join(["target"] + [f"f{j}" for j in range(n_features)]) + "\r\n")
        _write_rows(fh, ",".join(["%.17g"] * (n_features + 1)) + "\r\n", dataset.targets, dataset.design)
    return path


def _read_regression_header(path, reader):
    """Check the header row and return its width."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if not header or header[0] != "target":
        raise ValueError(f"{path}: first column must be named 'target'")
    if len(header) < 2:
        raise ValueError(f"{path}: no feature columns")
    return len(header)


def _loadtxt(lines, **kwargs):
    """Parse `lines` with numpy's C reader, or return None if it refuses them.

    Warnings count as refusals: numpy warns, rather than raises, on input
    with no data.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, comments=None, ndmin=2, **kwargs)
    except (ValueError, Warning):
        return None


def load_regression_csv(path):
    path = Path(path)
    with path.open(newline="") as fh:
        width = _read_regression_header(path, csv.reader(fh))
        n_lines = 0

        def body():
            nonlocal n_lines
            for line in fh:
                n_lines += 1
                yield line

        table = _loadtxt(body(), delimiter=",")
    # numpy skips blank lines, which the line loop rejects, so every line must give a row
    if table is not None and table.shape == (n_lines, width):
        try:
            return RegressionDataset(np.ascontiguousarray(table[:, 1:]), table[:, 0].copy())
        except ValueError:
            pass
    return _load_regression_csv_by_line(path)


def _load_regression_csv_by_line(path):
    """The line loop: names the first faulty line, and accepts what Python's
    csv and float() accept beyond numpy (quoted fields, `1_0`, non-ASCII digits)."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        width = _read_regression_header(path, reader)
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
        _write_rows(fh, "%d %d %+d\n", observed.rows, observed.cols, observed.signs)
    return path


def _read_user_count(path, fh):
    try:
        n_users = int(fh.readline().strip())
    except ValueError:
        raise ValueError(f"{path}: line 1: expected the user count") from None
    if n_users < 1:
        raise ValueError(f"{path}: line 1: the user count must be positive")
    return n_users


def load_sign_triplets(path):
    path = Path(path)
    with path.open() as fh:
        n_users = _read_user_count(path, fh)
        table = _loadtxt(fh, dtype=np.int64)
    if table is not None and table.shape[1] == 3:
        try:
            return ObservedSignMatrix(n_users, *table.T)
        except ValueError:
            pass
    return _load_sign_triplets_by_line(path)


def _load_sign_triplets_by_line(path):
    """The line loop: names the first faulty line, and accepts what Python's
    int() accepts beyond numpy (`1_0`, non-ASCII digits)."""
    with path.open() as fh:
        n_users = _read_user_count(path, fh)
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
            if not (0 <= i < n_users and 0 <= j < n_users):
                raise ValueError(f"{path}: line {lineno}: index outside [0, {n_users})")
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


@dataclass(slots=True)
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


class _QuotedFields(dict):
    """Each string field as csv.writer writes it inside a row, computed once
    per distinct string: csv.writer's own rule decides the quoting."""

    def __missing__(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow((text, ""))
        quoted = self[text] = buf.getvalue()[:-3]  # drop the empty field's "," and "\r\n"
        return quoted


# Rows formatted per write by write_trace_csv.
_TRACE_CHUNK_ROWS = 1 << 10
_TRACE_LINE = "%s,%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\r\n"


def write_trace_csv(path, rows):
    """Write TraceRow records (any iterable) with the header TRACE_HEADER.

    Each row fills one %-template, and the lines go out a chunk of rows per
    write, so the file is never held in memory whole. The bytes are those of
    csv.writer with each float as "%.17g" and each int as str().
    """
    path = Path(path)
    quoted = _QuotedFields()
    with path.open("w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        chunk = []
        for r in rows:
            chunk.append(
                _TRACE_LINE % (
                    quoted[r.run_id], quoted[r.solver], r.k, r.time_s, r.objective,
                    r.step_norm_sq, r.eps_k, r.certified_eps, r.inner_iters, quoted[r.branch],
                )
            )
            if len(chunk) == _TRACE_CHUNK_ROWS:
                fh.write("".join(chunk))
                chunk.clear()
        fh.write("".join(chunk))
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
