#!/usr/bin/env python3
"""Measures every workload of BENCHMARK.json and prints a trajectory entry.

Usage (from the repository root):
    python3 perfbench/record.py --label TEXT [--runs 10] [--first-seed 1]
        [--workload NAME ...] >> perfbench/trajectory.jsonl

Runs each workload --runs times untraced, one seed per run, then once
traced. For every end-to-end metric it reports the median, the first
and third quartiles (statistics.quantiles(n=4)) and the spread, i.e.
the quartile distance as a share of the median, and flags a spread
wider than the metric's bound. Progress goes to standard error; the
single JSON line on standard output is the trajectory entry.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, seed, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("%s seed %d trace %d failed" % (workload, seed, trace))
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = a.workload or [w["name"] for w in bench["workloads"]]

    entry = {"label": a.label, "date": time.strftime("%Y-%m-%d"),
             "host": "%s, %d cpus" % (platform.machine(), os.cpu_count()),
             "runs": a.runs, "run_seconds": bench["run_seconds"],
             "workloads": {}}
    ok = True
    for name in names:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            res = run(bench, name, seed, 0)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()})),
                file=sys.stderr)
        e2e = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            e2e[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": round(spread, 4)}
            if spread > m["bound"]:
                ok = False
                print("%s %s: spread %.3f exceeds bound %.2f" %
                      (name, m["name"], spread, m["bound"]), file=sys.stderr)
        traced = run(bench, name, a.first_seed, 1)
        entry["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print("%s spreads: %s" % (name, json.dumps(
            {k: v["spread"] for k, v in e2e.items()})), file=sys.stderr)
    print(json.dumps(entry))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
