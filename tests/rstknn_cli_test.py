#!/usr/bin/env python3
"""End-to-end checks of `rstknn_cli rstknn`, which runs every query -- one
(--id, --keywords) or many (--ids) -- through one batch runner.

    rstknn_cli_test.py PATH/TO/rstknn_cli

On a generated 500-object dataset it checks that
  * --id 3 and --ids 3 print the same answers and the same --explain table;
  * --ids "3 5 7" prints the same output at --threads 1 and --threads 4, and
    over a 4-shard index;
  * malformed numbers (thread counts below 1, non-numeric, negative,
    out-of-range or 32-bit-wrapping ids, non-numeric keywords) exit 2.
Exits non-zero with a message on the first failed check.
"""

import os
import subprocess
import sys
import tempfile


def run(cli, *args):
    return subprocess.run([cli, *args], capture_output=True, text=True,
                          check=False)


def ok(cli, *args):
    proc = run(cli, *args)
    if proc.returncode != 0:
        sys.exit("rstknn_cli %s exited %d:\n%s" %
                 (" ".join(args), proc.returncode, proc.stderr))
    return proc


def explain_table(stderr):
    """The --explain report: its header line plus the indented lines under
    it."""
    table = []
    for line in stderr.splitlines():
        if line.startswith("explain"):
            table.append(line)
        elif table and line.startswith("  "):
            table.append(line)
        elif table:
            break
    return table


def check(condition, message):
    if not condition:
        sys.exit("FAILED: " + message)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "d.tsv")
        ok(cli, "gen", "--kind", "geonames", "--objects", "500", "--seed",
           "1", "--out", data)
        base = ["rstknn", "--data", data, "--k", "5"]

        single = ok(cli, *base, "--id", "3", "--explain")
        batch = ok(cli, *base, "--ids", "3", "--explain")
        single_answers = single.stdout.split()
        batch_rows = [row.split("\t") for row in batch.stdout.splitlines()]
        check(single_answers, "--id 3 found no reverse neighbors")
        check(all(row[0] == "3" for row in batch_rows),
              "--ids rows must start with the query id")
        check([row[1] for row in batch_rows] == single_answers,
              "--id 3 and --ids 3 answers differ")
        table = explain_table(single.stderr)
        check(table, "--id 3 --explain printed no table")
        check(explain_table(batch.stderr) == table,
              "--id 3 and --ids 3 explain tables differ")

        ids = ["--ids", "3 5 7"]
        serial = ok(cli, *base, *ids, "--threads", "1").stdout
        check(serial.count("\n") > 1, "--ids '3 5 7' printed too few rows")
        check(ok(cli, *base, *ids, "--threads", "4").stdout == serial,
              "--ids output differs between --threads 1 and --threads 4")
        check(ok(cli, *base, *ids, "--threads", "4", "--shards",
                 "4").stdout == serial,
              "--ids output differs over a 4-shard index")

        for bad in (["--id", "3", "--threads", "-1"],
                    ["--id", "3", "--threads", "0"],
                    ["--id", "3", "--threads", "two"],
                    ["--id", "3", "--build-threads", "0"],
                    ["--ids", "3 x"],
                    ["--ids", "4294967299"],
                    ["--ids", ""],
                    ["--id", "4294967299"],
                    ["--id", "-1"],
                    ["--id", "500"],
                    ["--id", "3x"],
                    ["--keywords", "1 x"]):
            proc = run(cli, *base, *bad)
            check(proc.returncode == 2,
                  "%s exited %d, want 2 (stderr: %s)" %
                  (bad, proc.returncode, proc.stderr.strip()))
            check(proc.stdout == "", "%s printed answers" % bad)
    print("rstknn_cli_test: ok")


if __name__ == "__main__":
    main()
