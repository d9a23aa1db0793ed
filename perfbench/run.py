#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload sweep|train|serve-verified \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The OCaml program (perfbench/main.ml) is
built with dune inside the checkout, then run; its standard output is
passed through, so the last line is the result object.  Exits non-zero
without printing a result when the sources are missing, the build fails
or the run fails or overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep", "train", "serve-verified")

# A run must finish within 180 s; the first one in a checkout also builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke size, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a checkout: %s is missing" % need)

    # The dune cache lives outside the checkout, so it stays off.
    build = ["dune", "build", "--root", ".", "--cache=disabled",
             "--display=quiet", "./perfbench/main.exe"]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    try:
        ran = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S)
    if ran.returncode != 0:
        fail("run failed with exit code %d" % ran.returncode)


if __name__ == "__main__":
    main()
