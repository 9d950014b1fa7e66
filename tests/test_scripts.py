"""Smoke runs of the scripts in scripts/, as subprocesses."""
import os
import subprocess
import sys
from pathlib import Path

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
