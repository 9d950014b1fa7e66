"""File formats: regression CSV, sign triplets, and solver trace CSV.

Regression CSV: header row, first column `target`, remaining columns
features, comma separated. Sign triplets: first line the user count, then
whitespace-separated `i j s` per line with 0-based indices and s in {+1,-1}.
Trace CSV: the exact header in TRACE_HEADER, floats written with 17
significant digits so values round-trip losslessly.

numpy's C reader (`np.loadtxt`, streamed over the open file) is the one
parser of the regression CSV body and of the sign triplets after line 1,
and line 1 is held to the triplets' integer rule. Where it refuses a file
(it raises or warns, a CSV body line gives no row, or the dataset rejects
the arrays), a locator reads the file again and raises ValueError naming
the first faulty line. It judges each line by numpy's parse of that line
alone and by checks on the parsed row, never by a second parser. The CSV
locator parses line by line; the triplet locator parses blocks of lines,
one call each, and halves only a refused block, so it reaches a line alone
only where numpy refuses it, and checks the rows it parsed with array
operations.
"""
from __future__ import annotations

import contextlib
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
    # numpy skips blank lines, which the format rejects, so every line must give a row
    if table is not None and table.shape == (n_lines, width):
        with contextlib.suppress(ValueError):
            return RegressionDataset(np.ascontiguousarray(table[:, 1:]), table[:, 0].copy())
    _raise_at_faulty_csv_line(path, width)


def _raise_at_faulty_csv_line(path, width):
    """The error path of load_regression_csv: name the first body line that
    is not `width` finite numbers."""
    with path.open(newline="") as fh:
        next(csv.reader(fh))  # the header, checked already
        for lineno, line in enumerate(fh, start=2):
            n_fields = line.count(",") + 1 if line.strip("\r\n") else 0
            if n_fields != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {n_fields}")
            row = _loadtxt([line], delimiter=",")
            if row is None or not np.isfinite(row).all():
                raise ValueError(f"{path}: line {lineno}: expected {width} finite numbers")
    raise ValueError(f"{path}: no data rows")


def write_sign_triplets(path, observed):
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{observed.n_users}\n")
        _write_rows(fh, "%d %d %+d\n", observed.rows, observed.cols, observed.signs)
    return path


def _read_user_count(path, fh):
    count = _loadtxt([fh.readline()], dtype=np.int64)
    if count is None or count.shape != (1, 1):
        raise ValueError(f"{path}: line 1: expected the user count")
    if count[0, 0] < 1:
        raise ValueError(f"{path}: line 1: the user count must be positive")
    return count.item()


def load_sign_triplets(path):
    path = Path(path)
    with path.open() as fh:
        n_users = _read_user_count(path, fh)
        table = _loadtxt(fh, dtype=np.int64)
    if table is not None and table.shape[1] == 3:
        with contextlib.suppress(ValueError):
            return ObservedSignMatrix(n_users, *table.T)
    _raise_at_faulty_triplet_line(path, n_users)


def _raise_at_faulty_triplet_line(path, n_users):
    """The error path of load_sign_triplets: name the first line that is
    neither blank nor an in-range, signed `i j s` seen for the first time."""
    with path.open() as fh:
        fh.readline()  # the user count, checked already
        numbered = [(lineno, line) for lineno, line in enumerate(fh, start=2) if not line.isspace()]
    linenos = [lineno for lineno, _ in numbered]
    rows, n_parsed = _parse_triplet_prefix([line for _, line in numbered])
    i, j, s = rows.T
    misfit = ((s != 1) & (s != -1)) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n_users)
    n_fit = int(np.argmax(misfit)) if misfit.any() else len(rows)
    # the row index of each fitting row's first copy
    _, first, inverse = np.unique(rows[:n_fit, :2], axis=0, return_index=True, return_inverse=True)
    copy_of = first[inverse]
    repeats = np.flatnonzero(copy_of != np.arange(n_fit))
    if repeats.size:
        at = repeats[0]
        fault = f"duplicate entry {tuple(rows[at, :2].tolist())} first seen on line {linenos[copy_of[at]]}"
    elif n_fit < len(rows):
        at = n_fit
        fault = "sign must be +1 or -1" if s[at] not in (1, -1) else f"index outside [0, {n_users})"
    elif n_parsed < len(linenos):
        at = n_parsed
        fault = "expected three integers 'i j s'"
    else:
        raise ValueError(f"{path}: no observations")
    raise ValueError(f"{path}: line {linenos[at]}: {fault}")


def _parse_triplet_prefix(lines):
    """Rows of the longest prefix of `lines` that numpy parses as one
    `i j s` row per line, and that prefix's length.

    A block of lines parses in one call. A refused block is halved and its
    halves parsed in turn, so a fault costs about 2 log2(len(lines)) calls,
    not one per line; the first line refused alone ends the prefix.
    """
    blocks, lo, ends = [np.empty((0, 3), dtype=np.int64)], 0, [len(lines)] if lines else []
    while ends:
        hi = ends[-1]
        rows = _loadtxt(lines[lo:hi], dtype=np.int64)
        if rows is not None and rows.shape == (hi - lo, 3):
            blocks.append(rows)
            lo = ends.pop()
        elif hi - lo == 1:
            break
        else:
            ends.append((lo + hi) // 2)
    return np.concatenate(blocks), lo


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
