"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out sweep.json

Runs `perfbench/run.py` once per (workload, seed), one run at a time, from
the root of the checkout. For every metric it reports the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median, and flags an
end-to-end spread (other than setup_s) above the bound that BENCHMARK.json
gives the metric. Exit status is nonzero if any run failed or any spread is
above its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    env = json.loads(lines[0].removeprefix("env ")) if lines and lines[0].startswith("env ") else None
    return proc.returncode, result, env, proc.stderr


def summarise(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    ok = True
    summary = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        collected = {}
        for seed in seeds:
            code, result, env, stderr = run_once(workload, seed, seconds, args.trace)
            summary.setdefault("env", env)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{stderr.strip()}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                collected.setdefault(name, []).append(metric["value"])
        summary["workloads"][workload] = {name: summarise(values) for name, values in collected.items()}
        for name, s in summary["workloads"][workload].items():
            line = f"{workload:<11} {name:<40} median {s['median']:<12.6g}"
            if s.get("spread") is None:
                print(line, flush=True)
                continue
            line += f" spread {s['spread']:.4f}"
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                line += f"  SPREAD ABOVE BOUND {bound}"
                ok = False
            print(line, flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
