#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke_test.py

For each workload it runs the driver untraced and traced and asserts that
  * every metric BENCHMARK.json names is printed, with its unit, and finite,
    both on a "metric" line and in the JSON result line;
  * every answer matched the oracle (failed = 0, failed_frac = 0);
  * in the traced run, spans are written out, their self times sum to at
    most the wall time they were recorded in, and the rstknn phases sum to
    at most the search time.
Exits non-zero with a message on the first failure.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper next to this file)


def fail(msg):
    sys.exit("smoke_test: FAIL: " + msg)


def parse(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed, notes = {}, {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in ("metric", "note"):
            target = printed if fields[0] == "metric" else notes
            target[fields[1]] = (float(fields[2]), fields[3])
    return result, printed, notes


def check_run(driver, workload, trace, expected):
    cmd = [driver, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", trace, "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = "%s --trace %s" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (where, proc.returncode, proc.stderr))
    result, printed, notes = parse(proc.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: oracle mismatches: %s" % (where, result))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % where)
    if notes.get("failed_frac", (None,))[0] != 0:
        fail("%s: failed_frac %s" % (where, notes.get("failed_frac")))
    if set(result["metrics"]) != {m["name"] for m in expected}:
        fail("%s: JSON metrics %s" % (where, sorted(result["metrics"])))
    for m in expected:
        name, unit = m["name"], m["unit"]
        got = result["metrics"][name]
        if got["unit"] != unit or not math.isfinite(got["value"]):
            fail("%s: %s = %s, want a finite value in %s" %
                 (where, name, got, unit))
        if name not in printed or printed[name][1] != unit:
            fail("%s: %s not printed with unit %s" % (where, name, unit))
    if trace == "1":
        wall = notes["trace.wall_ms"][0]
        self_sum = notes["trace.self_sum_ms"][0]
        if not 0 < self_sum <= wall:
            fail("%s: self times %.3f ms vs wall %.3f ms" %
                 (where, self_sum, wall))
        if result["metrics"]["rstknn.unattributed_ms"]["value"] < 0:
            fail("%s: rstknn phases exceed search time" % where)
        spans = [l.split() for l in proc.stderr.splitlines()
                 if l.startswith("span ")]
        if not spans:
            fail("%s: no spans written" % where)
        for f in spans:
            index, parent, start, end = int(f[1]), int(f[3]), float(f[7]), \
                float(f[8])
            if not (parent < index and start <= end):
                fail("%s: malformed span %s" % (where, " ".join(f)))
    print("ok  %-14s trace %s  attempted %d" %
          (workload, trace, result["attempted"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    driver = run.build()
    for workload in run.WORKLOADS:
        check_run(driver, workload, "0", bench["end_to_end"])
        check_run(driver, workload, "1", bench["per_layer"])
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
