"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark ``--runs`` times on one workload, each with the next
seed, and prints for every end-to-end metric the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound from BENCHMARK.json.
A spread below a third of the bound is the steadiness target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": done.returncode, **result})
        print(seed, done.returncode, result["correct"], result["attempted"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              file=sys.stderr)
    summary = {"workload": args.workload, "run_seconds": bench["run_seconds"],
               "seeds": [r["seed"] for r in runs],
               "all_correct": all(r["correct"] and r["exit"] == 0 for r in runs),
               "metrics": {}}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound, "values": values}
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:14s} median {med:10.5g}  spread {spread:7.4f}  bound {bound}  {flag}")
    print("all correct" if summary["all_correct"] else "SOME RUNS FAILED")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
