#!/usr/bin/env python3
"""Records one trajectory point of the benchmark.

Usage, from the repository root:

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/results/<name>.json

For every workload in BENCHMARK.json this runs perfbench/run.py once per
seed with --trace 0, then once with --trace 1 on the first seed. It
writes each end-to-end metric's median, quartiles, spread
((q3 - q1) / median, the figure its bound is checked against) and raw
values, plus the traced per-layer table, tagged with the commit (when run
from a git checkout) and the host's CPU.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run(spec, workload, seed, trace):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(command)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} ({wall:.0f} s)",
          flush=True)
    return result, wall


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), "unknown")
    point = {"commit": commit, "host": f"{os.cpu_count()} x {cpu}", "seeds": seeds,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(spec, workload, seed, 0) for seed in seeds]
        traced, traced_wall = run(spec, workload, seeds[0], 1)
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r, _ in results) and traced["correct"],
            "failed": sum(r["failed"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "run_wall_s": summary([wall for _, wall in results]),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"] for r, _ in results]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer": {"seed": seeds[0], "run_wall_s": traced_wall, **traced["metrics"]},
        }
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    for workload, data in point["workloads"].items():
        print(f"\n{workload} (correct={data['correct']})")
        for name, m in data["end_to_end"].items():
            flag = "" if name == "setup_s" or m["spread"] <= m["bound"] / 3 else "  <- spread"
            print(f"  {name:28s} median {m['median']:12.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
