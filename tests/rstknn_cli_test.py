#!/usr/bin/env python3
"""End-to-end checks of `rstknn_cli rstknn`, which runs every query -- one
(--id, --keywords) or many (--ids) -- through one batch runner, and of the
flag and journal-header parsing of `rst_replay`.

    rstknn_cli_test.py PATH/TO/rstknn_cli PATH/TO/rst_replay

On a generated 500-object dataset it checks that
  * --id 3 and --ids 3 print the same answers and the same --explain table;
  * --ids "3 5 7" prints the same output at --threads 1 and --threads 4;
  * --load-index with a snapshot saved from a different dataset -- larger,
    or of the same size -- exits 1 naming --load-index, whether or not
    --check-invariants is given, and a snapshot loaded beside its own
    dataset answers as a fresh build does;
  * malformed numbers (thread counts below 1, non-numeric, negative,
    out-of-range or 32-bit-wrapping ids, non-numeric keywords, an --alpha
    outside [0, 1], and junk or negative values of every other numeric flag
    of rstknn, gen, genusers, topk and maxbrst) exit 2 with a message naming
    the flag, and so do enum values outside their lists (--measure,
    --weighting, --algo, --kind, --method) and flags a command does not
    accept (misspelled, belonging to another command, or removed, such as
    --shards and --slow-log-out), and --slow-log-ms without --journal-out
    exits 2 naming --slow-log-ms;
  * a captured journal replays cleanly, and so does one whose header
    carries "shards": 4 (no digest mismatch, stats n/a), while malformed
    rst_replay flags (--threads, --max-diffs, --algo), the unknown flag
    --shards and journal headers whose algo, tree, measure or weighting is
    outside its vocabulary exit 2;
  * a 4-thread capture taken with --metrics-out replays on one thread with
    no digest or stats mismatch, and a capture whose recorded io_node_reads
    was edited fails replay with exit 1, naming io_node_reads;
  * a --slow-log-ms 0 capture records every query with its trace and
    EXPLAIN and replays clean under probe, under cl and on 4 threads, while
    a capture without it carries neither; --slow-log-ms 1e9 without
    --journal-sample journals no query (its header says sample_every 0),
    and --slow-log-ms -1 exits 2 with a message saying ">= 0";
  * --journal-sample 0 and --trace-sample 0 exit 2 with a message naming
    the flag and saying ">= 1", and write no output file;
  * a capture replayed after its dataset file was replaced by another one
    exits 1 before replaying, naming the file and both dataset digests.
Exits non-zero with a message on the first failed check.
"""

import json
import os
import shutil
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

        # A snapshot saved from a larger dataset does not fit a smaller one:
        # loading it is an error naming --load-index, never a crash.
        big = os.path.join(tmp, "big.tsv")
        small = os.path.join(tmp, "small.tsv")
        snapshot = os.path.join(tmp, "big.frz")
        ok(cli, "gen", "--kind", "geonames", "--objects", "2000", "--seed",
           "1", "--out", big)
        ok(cli, "gen", "--kind", "geonames", "--objects", "200", "--seed",
           "1", "--out", small)
        ok(cli, "rstknn", "--data", big, "--save-index", snapshot)
        for query in (["--id", "3", "--k", "5"],
                      ["--x", "50", "--y", "50", "--keywords", "3 7 11",
                       "--k", "5"],
                      ["--id", "3", "--k", "5", "--check-invariants"]):
            args = ["rstknn", "--data", small, "--load-index", snapshot,
                    *query]
            proc = run(cli, *args)
            check(proc.returncode == 1,
                  "%s exited %d, want 1 (stderr: %s)" %
                  (args, proc.returncode, proc.stderr.strip()))
            check(proc.stdout == "", "%s printed output" % args)
            check("--load-index" in proc.stderr and
                  "2000" in proc.stderr and "200" in proc.stderr,
                  "%s: the message does not name --load-index and both "
                  "object counts (stderr: %s)" % (args, proc.stderr.strip()))

        # A snapshot of another dataset of the same size: the object count
        # and ids fit, but the objects' locations and documents differ, so
        # its answers would be another dataset's. Loading it is an error;
        # loading the snapshot beside its own dataset answers exactly as a
        # fresh build does.
        other = os.path.join(tmp, "other.tsv")
        ok(cli, "gen", "--kind", "geonames", "--objects", "2000", "--seed",
           "2", "--out", other)
        args = ["rstknn", "--data", other, "--load-index", snapshot,
                "--id", "3", "--k", "5"]
        proc = run(cli, *args)
        check(proc.returncode == 1,
              "%s exited %d, want 1 (stderr: %s)" %
              (args, proc.returncode, proc.stderr.strip()))
        check(proc.stdout == "", "%s printed output" % args)
        check("--load-index" in proc.stderr,
              "%s: the message does not name --load-index (stderr: %s)" %
              (args, proc.stderr.strip()))
        query = ["--id", "3", "--k", "5"]
        check(ok(cli, "rstknn", "--data", big, "--load-index", snapshot,
                 *query).stdout ==
              ok(cli, "rstknn", "--data", big, *query).stdout,
              "a snapshot loaded beside its own dataset answers differently")

        for bad in (["--id", "3", "--threads", "-1"],
                    ["--id", "3", "--threads", "0"],
                    ["--id", "3", "--threads", "two"],
                    ["--id", "3", "--build-threads", "4"],
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
                          ([*base, "--id", "3", "--shards", "4"],
                           "--shards"),
                          ([*base, "--id", "3", "--slow-log-out",
                            data + ".x"], "--slow-log-out"),
                          ([*base, "--id", "3", "--slow-log-ms", "5"],
                           "--slow-log-ms"),
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
        ok(replay, "--journal", journal, "--threads", "2", "--algo", "cl",
           "--max-diffs", "0")
        # A capture taken over a sharded forest (an index kind that no
        # longer exists) still replays over one tree: digests are compared,
        # stats are reported n/a.
        with open(journal) as f:
            lines = f.read().splitlines(keepends=True)
        check('"shards"' not in lines[0], "the journal header wrote shards")
        header = json.loads(lines[0])
        check(header["version"] == 3 and len(header["dataset_digest"]) == 16
              and "slow_ms" not in header,
              "the journal header is not version 3 with a dataset digest "
              "and no slow_ms: %s" % lines[0])
        check(all("trace" not in json.loads(line) and
                  "explain" not in json.loads(line) for line in lines[1:]),
              "a capture without --slow-log-ms carries trace or explain")
        forest = os.path.join(tmp, "forest.jsonl")
        with open(forest, "w") as f:
            f.write(lines[0].replace('"threads":', '"shards":4,"threads":'))
            f.writelines(lines[1:])
        proc = ok(replay, "--journal", forest)
        check("digest mismatches: 0/3" in proc.stdout and
              "stats mismatches:  n/a" in proc.stdout and
              "shards=4" in proc.stdout,
              "a 4-shard capture did not replay with 0 digest mismatches "
              "and stats n/a (stdout: %s)" % proc.stdout[:300])
        replay_base = ["--journal", journal]
        for bad in (["--threads", "abc"], ["--threads", "0"],
                    ["--threads", "1025"], ["--threads", "-1"],
                    ["--max-diffs", "-3"], ["--max-diffs", "x"],
                    ["--shards", "4"], ["--algo", "nope"]):
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
        # Slow capture: a threshold of 0 ms admits every query, each record
        # carries its span tree and EXPLAIN summary, and the journal replays
        # clean under both algorithms and on 4 threads.
        slow = os.path.join(tmp, "slow.jsonl")
        ok(cli, *base, *many, "--threads", "4", "--journal-sample", "1000",
           "--slow-log-ms", "0", "--journal-out", slow)
        with open(slow) as f:
            lines = f.read().splitlines()
        check(json.loads(lines[0]).get("slow_ms") == 0,
              "the slow capture's header lacks slow_ms 0: %s" % lines[0])
        records = [json.loads(line) for line in lines[1:]]
        check(len(records) == len(many[1].split()),
              "the slow capture recorded %d of %d queries" %
              (len(records), len(many[1].split())))
        check(all(r["trace"]["name"] == "rstknn" and "totals" in r["explain"]
                  for r in records),
              "a slow-capture record lacks its trace or explain")
        for extra in ([], ["--algo", "cl"], ["--threads", "4"]):
            proc = ok(replay, "--journal", slow, *extra)
            check("digest mismatches: 0/" in proc.stdout,
                  "the slow capture replayed with mismatches (%s): %s" %
                  (extra, proc.stdout[:300]))
        # Without --journal-sample, the threshold alone admits: no query
        # of the batch runs for 1e9 ms, so none is journaled.
        none_slow = os.path.join(tmp, "none_slow.jsonl")
        ok(cli, *base, *many, "--slow-log-ms", "1e9", "--journal-out",
           none_slow)
        with open(none_slow) as f:
            lines = f.read().splitlines()
        check(json.loads(lines[0]).get("sample_every") == 0,
              "a threshold-only capture's header lacks sample_every 0: %s"
              % lines[0])
        check(len(lines) == 1,
              "--slow-log-ms 1e9 journaled %d of %d queries, want 0" %
              (len(lines) - 1, len(many[1].split())))
        # A one-sided bound names itself, not the upper sentinel.
        proc = run(cli, *base, "--id", "3", "--slow-log-ms", "-1",
                   "--journal-out", none_slow)
        check(proc.returncode == 2 and "--slow-log-ms" in proc.stderr and
              ">= 0" in proc.stderr and "e+308" not in proc.stderr,
              "--slow-log-ms -1 exited %d with message: %s" %
              (proc.returncode, proc.stderr.strip()))
        # A zero stride is an error, not "every query".
        zero_out = os.path.join(tmp, "zero_stride.out")
        for flag, out_flag in (("--journal-sample", "--journal-out"),
                               ("--trace-sample", "--trace-out")):
            proc = run(cli, *base, *many, flag, "0", out_flag, zero_out)
            check(proc.returncode == 2 and flag in proc.stderr and
                  ">= 1" in proc.stderr and proc.stdout == "",
                  "%s 0 exited %d with message: %s" %
                  (flag, proc.returncode, proc.stderr.strip()))
            check(not os.path.exists(zero_out),
                  "%s 0 wrote %s" % (flag, out_flag))

        # A journal names its dataset: replayed after the file was replaced
        # by another dataset, it stops before replaying and says so.
        swapped = os.path.join(tmp, "swapped.tsv")
        shutil.copyfile(big, swapped)
        captured = os.path.join(tmp, "swapped.jsonl")
        ok(cli, "rstknn", "--data", swapped, "--ids", "3 5 7", "--k", "5",
           "--journal-out", captured)
        ok(replay, "--journal", captured)
        shutil.copyfile(other, swapped)
        with open(captured) as f:
            digest = json.loads(f.readline())["dataset_digest"]
        proc = run(replay, "--journal", captured)
        check(proc.returncode == 1,
              "replay over a swapped dataset exited %d, want 1 (stderr: %s)"
              % (proc.returncode, proc.stderr.strip()))
        check(swapped in proc.stderr and digest in proc.stderr and
              "digest mismatches" not in proc.stdout,
              "replay over a swapped dataset does not name the file and the "
              "recorded digest before replaying (stdout: %s, stderr: %s)" %
              (proc.stdout[:200], proc.stderr.strip()))
    print("rstknn_cli_test: ok")


if __name__ == "__main__":
    main()
