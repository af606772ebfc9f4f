#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form prints the driver's output; its last line is the JSON result
(see README.md). --all runs every workload untraced and traced, one after
the other, and prints every end-to-end and per-layer metric with its unit.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout root) as a Release build; build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["spatial_serial", "text_batch", "maxbrst_sites"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found at %s/src" % ROOT)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4",
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    try:
        driver = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    runs = [(args.workload, args.trace)]
    if args.all:
        runs = [(w, t) for w in WORKLOADS for t in ("0", "1")]
    status = 0
    for workload, trace in runs:
        cmd = [driver, "--workload", workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", trace,
               "--size", args.size]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
