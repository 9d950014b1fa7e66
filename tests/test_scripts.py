"""Smoke runs of the scripts in scripts/, as subprocesses."""
import os
import subprocess
import sys
from pathlib import Path

from iprox.bench import APPLICATIONS
from iprox.solvers import EXACT_KINDS, SOLVER_KINDS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_schedule_sweep_prints_its_table():
    lines = run_script("schedule_sweep.py", "--max-iters", "5", "--n", "40", "--d", "10")
    assert lines[0].startswith("exact accelerated baseline: objective")
    assert lines[2].split() == ["schedule", "objective", "gap", "to", "exact", "inner", "max", "cert"]
    assert len(lines) == 3 + 6


def test_trace_keys_prints_one_hash_per_pair():
    lines = run_script("trace_keys.py", "--max-iters", "3")
    pairs = [line.split() for line in lines]
    assert len(pairs) == 21
    assert all(len(p) == 3 and len(p[2]) == 64 and int(p[2], 16) >= 0 for p in pairs)
    assert len({(app, kind) for app, kind, _ in pairs}) == 21
    assert [kind for app, kind, _ in pairs if app == "robust_tracelasso"] == ["ipg", "aipg", "nmaipg"]
    assert lines == run_script("trace_keys.py", "--max-iters", "3")  # deterministic


def test_kind_times_prints_one_row_per_application():
    lines = run_script("kind_times.py", "--max-iters", "3", "--runs", "2")
    blank = lines.index("")
    times, work = lines[:blank], lines[blank + 1 :]
    for table in (times, work):
        assert table[0] == "| application | " + " | ".join(SOLVER_KINDS) + " |"
    time_rows = [[c.strip() for c in line.strip("|").split("|")] for line in times[2:]]
    work_rows = [[c.strip() for c in line.strip("|").split("|")] for line in work[2:]]
    assert [row[0] for row in time_rows] == [row[0] for row in work_rows] == list(APPLICATIONS)
    for (app, *cells), (_, *work) in zip(time_rows, work_rows):
        assert len(cells) == len(work) == len(SOLVER_KINDS)
        for kind, text, counts in zip(SOLVER_KINDS, cells, work):
            if app == "robust_tracelasso" and kind in EXACT_KINDS:
                assert text == counts == "n/a"
            else:
                value, unit = text.split()
                assert unit == "ms" and float(value) >= 0
                inner, evals, grads = (int(n) for n in counts.split(" / "))
                # only the inexact trace-lasso and rank proxes iterate
                iterative = kind not in EXACT_KINDS and app in ("robust_tracelasso", "link_prediction")
                assert (inner > 0) == iterative
                # three iterations: pg reads every gradient but x_3's; the
                # accelerated kinds evaluate z alone at k = 1 and 2, and leave
                # two gradients unread from k = 3 on (one on a shortcut)
                if kind in ("pg", "ipg"):
                    assert (evals, grads) == (4, 3)
                else:
                    assert (evals, grads) in ((6, 4), (5, 3))
