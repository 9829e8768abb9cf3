#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 bench_suite/spread.py [--workloads step_large,cloud_job] [--runs 10]
                                  [--seed0 1000] [--seconds 20] [--baseline DIR]

Runs each workload --runs times through run.py, each time with another seed
(seed0, seed0+1, ...), and reports per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. --baseline DIR also makes one traced run per workload (seed
seed0) and writes DIR/<workload>.json: the host header, the end-to-end
summary with every value, and the per-layer metrics of the traced run.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed (exit {proc.returncode})\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    report = {}
    for line in lines:
        m = re.match(r"report: (.*)$", line)
        if m:
            with open(m.group(1)) as f:
                report = json.load(f)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed} reported incorrect output")
    return result, report


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--baseline")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.seed0 + i for i in range(args.runs)]

    print(f"{'workload':<13} {'metric':<13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        values, host = {}, None
        for seed in seeds:
            result, report = run_once(w, seed, seconds, 0)
            host = host or report.get("host")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": v}
            print(f"{w:<13} {name:<13} {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{100 * spread:6.2f}% {100 * bounds[name]:5.1f}%", flush=True)
        if args.baseline:
            traced, traced_report = run_once(w, args.seed0, seconds, 1)
            os.makedirs(args.baseline, exist_ok=True)
            with open(os.path.join(args.baseline, f"{w}.json"), "w") as f:
                json.dump({"workload": w, "seconds": seconds, "seeds": seeds, "host": host,
                           "end_to_end": summary,
                           "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
                           "per_layer_host": traced_report.get("host"),
                           "extras_traced": traced_report.get("extras")},
                          f, indent=1)
                f.write("\n")


if __name__ == "__main__":
    main()
