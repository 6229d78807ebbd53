#!/usr/bin/env python3
"""Runs every workload over a list of seeds and summarises the end-to-end
metrics: median, quartiles and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them), against each metric's bound
in BENCHMARK.json.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--workloads a,b]
                                  [--out perfbench/BASELINE.json]

--out writes the summary as JSON (the recorded baseline); without it the
summary is only printed. Each run is `perfbench/run.py ... --trace 0`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
            result = json.loads(out.strip().split("\n")[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vs}
            print(f"{workload:12s} {name:18s} median={med:12.6g} "
                  f"spread={spread:7.4f} bound={bounds.get(name, 0):.2f}"
                  f"{'  SPREAD > BOUND/3' if spread > bounds.get(name, 0) / 3 else ''}"
                  f"  [{' '.join(f'{v:.5g}' for v in vs)}]",
                  flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
