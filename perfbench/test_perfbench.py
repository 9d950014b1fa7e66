"""Fast self-test of the benchmark on tiny instances.

    python3 -m pytest perfbench -q

Pins the output schema against BENCHMARK.json, the BENCHMARK.json format
itself, and that each correctness check catches the fault it exists for.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_program()

import harness  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from checks import check_csv, check_records, check_same_keys, check_twin  # noqa: E402
from iprox.dataio import TraceRow, write_trace_csv  # noqa: E402
from iprox.solvers import IterationRecord  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# Small instances with the same structure as each workload, and few iterations.
TINY = {
    "oscar": ({"n": 60, "d": 12, "n_groups": 3, "outlier_frac": 0.1, "noise_sd": 0.05}, 300),
    "tracelasso": ({"n": 20, "d": 6, "correlation": 0.9, "sparsity": 2, "noise_sd": 0.05,
                    "outlier_frac": 0.1}, 4),
    "linkpred": ({"n_users": 12, "true_rank": 2, "obs_frac": 0.4, "margin": 0.5}, 8),
}


@pytest.fixture
def tiny(monkeypatch):
    """Swap every workload for its tiny variant: same runs, small input, few iterations."""
    for name, (params, iters) in TINY.items():
        w = workloads.WORKLOADS[name]
        runs = tuple(replace(r, max_iters=iters) for r in w.runs)
        monkeypatch.setitem(workloads.WORKLOADS, name, replace(w, params=params, runs=runs))


def run_main(capsys, *args):
    """harness.main in this process; returns its exit code and standard output lines."""
    code = harness.main(list(args))
    return code, capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == harness.workloads.WORKLOADS[w["name"]].why


def test_blas_pinned_before_numpy():
    code = "import run, json; run.import_program(); import harness; print(json.dumps(harness.environment()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    env = json.loads(proc.stdout)
    assert env["blas_threads"] in (1, None) and env["nproc"] >= 1
    assert {"python", "numpy", "blas", "blas_version", "cpu"} <= set(env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_schema(tiny, capsys, workload, trace):
    code, lines = run_main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                           "--trace", str(trace))
    assert code == 0
    assert lines[0].startswith("env ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_stripped_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oscar", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_check_exits_nonzero(tiny, monkeypatch, capsys):
    real = harness.run_solver

    def rising(loss, penalty, x0, config):
        trace = real(loss, penalty, x0, config)
        if config.solver_kind == "pg":
            trace.records[-1].objective += 1.0
        return trace

    monkeypatch.setattr(harness, "run_solver", rising)
    code, lines = run_main(capsys, "--workload", "oscar", "--seed", "1", "--seconds", "0.1")
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def _records(objectives, certs=None):
    certs = certs or [0.0] * len(objectives)
    return [IterationRecord(k, f, 0.0, 0.0, c, 0, "prox", 0.0) for k, (f, c) in enumerate(zip(objectives, certs))]


def test_check_records_catches_each_fault():
    assert check_records("pg", _records([3.0, 2.0, 2.0])) == []
    assert check_records("pg", _records([3.0, 2.0, 2.5]))
    assert check_records("ipg", _records([3.0, 2.0, 2.5])) == []  # only pg and apg must descend
    assert check_records("ipg", _records([3.0, math.nan]))
    assert check_records("ipg", _records([3.0, 2.0], [0.0, math.inf]))
    assert check_records("ipg", _records([3.0, 2.0], [0.0, -1e-9]))


def test_check_csv_twin_and_keys(tmp_path):
    rows = [TraceRow("r", "pg", 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0, "init")]
    path = write_trace_csv(tmp_path / "t.csv", rows)
    assert check_csv(path, rows) == []
    assert check_csv(path, [replace(rows[0], objective=1.0 + 1e-15)])
    assert check_twin("ipg", 1.0 + 1e-6, "pg", 1.0) == []
    assert check_twin("ipg", 1.0 + 1e-4, "pg", 1.0)
    assert check_same_keys("pg", ((0, 1.0),), ((0, 1.0),), "x") == []
    assert check_same_keys("pg", ((0, 1.0),), ((0, 2.0),), "x")
