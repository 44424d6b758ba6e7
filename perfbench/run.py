#!/usr/bin/env python3
"""Build swsd and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload serve-narrow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to .bench_build (release
profile, no shared dune cache, so nothing is read or written outside the
checkout).  The process pins itself to one CPU before starting the
benchmark program, which inherits that placement, as do the swsd daemons
it spawns: the client and the server always share one core (a closed
loop with one request in flight never needs two).  The last line of
standard output is the result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-narrow", "serve-wide", "serve-hot", "paper-cold")
BUILD_DIR = ".bench_build"
SOURCES = ("dune-project", "lib", os.path.join("bin", "swsd.ml"), os.path.join("perfbench", "dune"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.exit("run.py: not the root of a checkout (missing %s)" % ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "bin/swsd.exe", "perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    nproc = os.cpu_count() or 1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, "--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace),
                   "--swsd", os.path.join(BUILD_DIR, "default", "bin", "swsd.exe"),
                   "--nproc", str(nproc), "--out", os.path.join(BUILD_DIR, "perfbench")])


if __name__ == "__main__":
    main()
