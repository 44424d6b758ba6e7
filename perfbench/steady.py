#!/usr/bin/env python3
"""Steadiness report: run workloads several times, each with another seed,
and print every metric's median and quartile spread.

    python3 perfbench/steady.py --runs 10 [--workloads serve-hot,paper-cold]

The spread is (Q3 - Q1) / median, with the quartiles that Python's
statistics.quantiles(values, n=4) gives.  Compare it with each metric's
bound in BENCHMARK.json: a metric is steady when its spread stays well
below its bound.  Run k uses seed k and lasts BENCHMARK.json's run_seconds; runs
are untraced, since only the end-to-end metrics have bounds.  Raw results are appended to
.bench_build/steady.jsonl as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


LOG = ".bench_build/steady.jsonl"


def run(workload, seed, seconds):
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" % (workload, seed, p.returncode, p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1]), wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in a.workloads.split(","):
        values, walls = {}, []
        for seed in range(1, a.runs + 1):
            res, wall = run(w, seed, bench["run_seconds"])
            walls.append(wall)
            with open(LOG, "a") as log:
                log.write(json.dumps({"workload": w, "seed": seed, "wall_s": wall, "result": res}) + "\n")
            if not res["correct"] or res["failed"]:
                print("  seed %d: correct=%s failed=%d" % (seed, res["correct"], res["failed"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s: %d runs, %.1f s wall per run (max %.1f)" % (w, a.runs, statistics.mean(walls), max(walls)))
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst[(w, name)] = spread / bound
                flag = "  <- above bound/3" if spread > bound / 3 else ""
            print("  %-34s median %-14.6g spread %6.2f%%%s%s" % (
                name, med, 100 * spread,
                "  (bound %g%%)" % (100 * bound) if bound is not None else "", flag))
    if worst:
        (w, name), r = max(worst.items(), key=lambda kv: kv[1])
        print("largest spread/bound: %.2f (%s %s)" % (r, w, name))


if __name__ == "__main__":
    main()
