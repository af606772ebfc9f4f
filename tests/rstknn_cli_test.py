#!/usr/bin/env python3
"""End-to-end checks of `rstknn_cli rstknn`, which runs every query -- one
(--id, --keywords) or many (--ids) -- through one batch runner, and of the
flag and journal-header parsing of `rst_replay`.

    rstknn_cli_test.py PATH/TO/rstknn_cli PATH/TO/rst_replay

On a generated 500-object dataset it checks that
  * --id 3 and --ids 3 print the same answers and the same --explain table;
  * --ids "3 5 7" prints the same output at --threads 1 and --threads 4, and
    over a 4-shard index;
  * malformed numbers (thread counts below 1, non-numeric, negative,
    out-of-range or 32-bit-wrapping ids, non-numeric keywords, an --alpha
    outside [0, 1], and junk or negative values of every other numeric flag
    of rstknn, gen, genusers, topk and maxbrst) exit 2 with a message naming
    the flag, and so do enum values outside their lists (--measure,
    --weighting, --algo, --kind, --method) and flags a command does not
    accept (misspelled, or belonging to another command);
  * a captured journal replays cleanly, while malformed rst_replay flags
    (--threads, --max-diffs, --shards, --algo) and journal headers whose
    algo, tree, measure or weighting is outside its vocabulary exit 2;
  * a 4-thread capture taken with --metrics-out replays on one thread with
    no digest or stats mismatch, and a capture whose recorded io_node_reads
    was edited fails replay with exit 1, naming io_node_reads.
Exits non-zero with a message on the first failed check.
"""

import json
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
        sys.exit("%s %s exited %d:\n%s" %
                 (os.path.basename(cli), " ".join(args), proc.returncode,
                  proc.stderr))
    return proc


def check_usage_error(tool, args, flag):
    """`tool args` must exit 2, print nothing on stdout and name `flag`."""
    proc = run(tool, *args)
    check(proc.returncode == 2,
          "%s exited %d, want 2 (stderr: %s)" %
          (args, proc.returncode, proc.stderr.strip()))
    check(proc.stdout == "", "%s printed output" % args)
    check(flag in proc.stderr,
          "%s: the message does not name %s (stderr: %s)" %
          (args, flag, proc.stderr.strip()))


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
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    cli, replay = sys.argv[1], sys.argv[2]
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
                    ["--keywords", "1 x"],
                    ["--id", "3", "--alpha", "1.5"],
                    ["--id", "3", "--alpha", "-0.5"],
                    ["--id", "3", "--alpha", "abc"],
                    ["--id", "3", "--alpha", "nan"],
                    ["--id", "3", "--alpha", "0.5x"],
                    ["--id", "3", "--k", "-1"],
                    ["--id", "3", "--k", "five"],
                    ["--id", "3", "--shards", "-2"],
                    ["--id", "3", "--pool-pages", "abc"],
                    ["--id", "3", "--explain-log", "-3"],
                    ["--id", "3", "--slow-log-ms", "soon"],
                    ["--id", "3", "--trace-sample", "-1"],
                    ["--id", "3", "--telemetry-ms", "xyz"],
                    ["--id", "3", "--journal-sample", "1.5"],
                    ["--keywords", "1 2", "--x", "inf"],
                    ["--keywords", "1 2", "--y", "12,5"],
                    ["--id", "3", "--measure", "bogus"],
                    ["--id", "3", "--weighting", "bogus"],
                    ["--id", "3", "--algo", "foo"]):
            flag = next((arg for arg in bad if arg not in ("--id", "--ids",
                                                           "--keywords")
                         and arg.startswith("--")), bad[0])
            check_usage_error(cli, base + bad, flag)

        # The other commands parse their numeric flags the same way.
        users = os.path.join(tmp, "u.tsv")
        ok(cli, "genusers", "--data", data, "--num", "20", "--ul", "2",
           "--uw", "10", "--area", "10", "--out", users)
        maxbrst = ["maxbrst", "--data", data, "--users", users,
                   "--keywords", "3 7 11", "--locations", "20:20;50:50"]
        ok(cli, *maxbrst, "--ws", "2", "--k", "5")
        for bad in (["gen", "--objects", "-5", "--out", data + ".x"],
                    ["gen", "--objects", "10k", "--out", data + ".x"],
                    ["gen", "--seed", "x", "--out", data + ".x"],
                    ["genusers", "--data", data, "--num", "-1"],
                    ["genusers", "--data", data, "--ul", "two"],
                    ["genusers", "--data", data, "--uw", "-3"],
                    ["genusers", "--data", data, "--area", "wide"],
                    ["topk", "--data", data, "--keywords", "3", "--k", "-1"],
                    ["topk", "--data", data, "--keywords", "3", "--alpha",
                     "2"],
                    [*maxbrst, "--ws", "-1"],
                    [*maxbrst, "--k", "x"],
                    [*maxbrst, "--alpha", "abc"],
                    [*maxbrst[:-1], "20:20;50:north"],
                    [*maxbrst[:-1], "20:20;5050"],
                    ["gen", "--kind", "bogus", "--out", data + ".x"],
                    ["gen", "--weighting", "bogus", "--out", data + ".x"],
                    [*maxbrst, "--method", "fast"]):
            proc = run(cli, *bad)
            check(proc.returncode == 2,
                  "%s exited %d, want 2 (stderr: %s)" %
                  (bad, proc.returncode, proc.stderr.strip()))
            check(proc.stdout == "", "%s printed output" % bad)
            check(not os.path.exists(data + ".x"), "%s wrote a file" % bad)

        # Every command rejects a flag it does not accept, naming it.
        topk = ["topk", "--data", data, "--keywords", "3 7", "--k", "3"]
        ok(cli, *topk)
        for bad, flag in (([*base, "--id", "3", "--bogus-flag", "7"],
                           "--bogus-flag"),
                          ([*base, "--id", "3", "--kk", "50"], "--kk"),
                          ([*base, "--id", "3", "--trace-samples", "2"],
                           "--trace-samples"),
                          ([*topk, "--kay", "3"], "--kay"),
                          ([*topk, "--threads", "4"], "--threads"),
                          ([*maxbrst, "--explain"], "--explain"),
                          (["stats", "--data", data, "--out", data + ".x"],
                           "--out"),
                          (["gen", "--data", data, "--out", data + ".x"],
                           "--data")):
            check_usage_error(cli, bad, flag)
            check(not os.path.exists(data + ".x"), "%s wrote a file" % bad)

        # rst_replay: a capture replays cleanly; malformed flags and header
        # tokens outside their vocabularies exit 2 naming what is wrong.
        journal = os.path.join(tmp, "j.jsonl")
        ok(cli, *base, "--ids", "3 5 7", "--journal-out", journal)
        ok(replay, "--journal", journal)
        ok(replay, "--journal", journal, "--threads", "2", "--shards", "2",
           "--algo", "cl", "--max-diffs", "0")
        replay_base = ["--journal", journal]
        for bad in (["--threads", "abc"], ["--threads", "0"],
                    ["--threads", "1025"], ["--threads", "-1"],
                    ["--max-diffs", "-3"], ["--max-diffs", "x"],
                    ["--shards", "-2"], ["--shards", "xyz"],
                    ["--algo", "nope"]):
            check_usage_error(replay, replay_base + bad, bad[0])
        with open(journal) as f:
            lines = f.read().splitlines(keepends=True)
        for key, good in (("measure", "ej"), ("weighting", "tfidf"),
                          ("algo", "probe"), ("tree", "iur")):
            needle = '"%s":"%s"' % (key, good)
            check(needle in lines[0], "journal header lacks %s" % needle)
            broken = os.path.join(tmp, "bad_%s.jsonl" % key)
            with open(broken, "w") as f:
                f.write(lines[0].replace(needle, '"%s":"bogus"' % key))
                f.writelines(lines[1:])
            check_usage_error(replay, ["--journal", broken], key)

        # The artifact switch only observes: a capture of a 4-thread batch
        # taken with --metrics-out replays on one thread with identical
        # answers and identical recorded stats, I/O counts included.
        many = ["--ids", " ".join(str(i) for i in range(3, 500, 19))]
        metered = os.path.join(tmp, "metered.jsonl")
        report = os.path.join(tmp, "metered.report.json")
        ok(cli, *base, *many, "--threads", "4", "--metrics-out",
           os.path.join(tmp, "metered.metrics.json"), "--journal-out",
           metered)
        ok(replay, "--journal", metered, "--threads", "1", "--report", report)
        with open(report) as f:
            summary = json.load(f)
        check(len(summary["per_query"]) >= 20,
              "the metered capture replayed %d queries, want >= 20" %
              len(summary["per_query"]))
        check(summary["replay"]["stats_comparable"],
              "the metered capture's stats were not compared")
        check(summary["digest_mismatches"] == 0 and
              summary["stats_mismatches"] == 0,
              "metered capture replayed with %d digest / %d stats mismatches"
              % (summary["digest_mismatches"], summary["stats_mismatches"]))

        # A stats divergence names the field that differs, I/O fields too.
        with open(metered) as f:
            lines = f.read().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["stats"]["io_node_reads"] += 1
        edited = os.path.join(tmp, "edited.jsonl")
        with open(edited, "w") as f:
            f.write(lines[0])
            f.write(json.dumps(record, separators=(",", ":")) + "\n")
            f.writelines(lines[2:])
        proc = run(replay, "--journal", edited)
        check(proc.returncode == 1,
              "replay of an edited capture exited %d, want 1 (stderr: %s)" %
              (proc.returncode, proc.stderr.strip()))
        check("stats diverged" in proc.stderr and
              "io_node_reads" in proc.stderr,
              "the divergence line does not name io_node_reads (stderr: %s)"
              % proc.stderr.strip())
    print("rstknn_cli_test: ok")


if __name__ == "__main__":
    main()
