#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (untraced), and reports for every end-to-end metric its median,
quartiles and spread: (Q3 - Q1) / median, quartiles as Python's
statistics.quantiles(values, n=4) gives them. A spread must stay within
the metric's bound (setup_s excepted) and should stay below a third of it.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1,2,3]
                                [--seconds N] [--out FILE]

Run from the repository root. With --out, the summary is written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values)}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seeds": seeds, "seconds": a.seconds, "workloads": {}}
    ok = True
    for workload in a.workloads.split(","):
        runs = [run_once(bench["command"], workload, s, a.seconds)
                for s in seeds]
        rows = {}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            s["values"] = [r[name] for r in runs]
            rows[name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > bound / 3:
                flag = "  above bound/3"
            print(f"{workload:16} {name:12} median {s['median']:12.6g} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}",
                  flush=True)
        summary["workloads"][workload] = rows
    if a.out:
        with open(a.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
