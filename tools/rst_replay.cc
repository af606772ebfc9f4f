// rst_replay — deterministic replay of a captured workload journal
// (tools/rstknn_cli --journal-out, bench/load_driver --journal-out) against a
// freshly built index. Turns any capture into a regression test: every
// replayed query's FNV-1a64 answer digest must equal the recorded one, and
// the accumulated index heatmap must reconcile counter-exactly with the
// summed RstknnStats.
//
//   rst_replay --journal FILE [--data FILE]
//              [--algo probe|cl|contribution-list|journal]
//              [--threads N] [--report FILE] [--heatmap-out FILE]
//              [--max-diffs N]
//
// The index is rebuilt from the dataset and frozen (rst::frozen), the one
// structure RSTkNN searches; the `view` key of older journal headers is
// ignored.
//
//   --journal FILE   the JSONL capture to replay (required)
//   --data FILE      dataset TSV (default: the journal header's data path);
//                    a header with a `dataset_digest` (version 3 on) must
//                    name this dataset, or the replay stops before running
//   --algo           algorithm to replay with (default: journal). Answers —
//                    and therefore digests — are independent of the
//                    algorithm by the equality contract; stats are only
//                    compared when the replay algorithm matches the capture
//                    and the capture searched one IUR tree: a header whose
//                    `shards` is above 0 (a capture over a sharded forest,
//                    an index kind that no longer exists) still replays,
//                    with digests compared and stats reported n/a
//   --threads N      BatchRunner workers in [1, 1024] (default 1 = inline on
//                    the caller); digests are identical at any thread count
//   --report FILE    write the per-query diff report as JSON
//   --heatmap-out    write the replay's accumulated heatmap JSON
//   --max-diffs N    cap per-query diff lines on stderr (default 10)
//
// Exit status: 0 clean; 1 on a dataset whose digest differs from the
// header's, any answer-digest mismatch, comparable-stats mismatch, or heatmap
// reconciliation failure; 2 on usage/IO errors — a malformed flag
// value (named in the message) or a journal header whose algo, tree, measure
// or weighting is outside its vocabulary. Scripted gates (the CI
// replay-smoke job) rely on this.
//
// After replaying, an aggregate analytics table is printed: per-level prune
// efficiency, bound-fire frequency, hottest nodes and hottest query terms —
// a workload-level view of where the branch-and-bound spends its work.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/data/csv.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/rstknn/rstknn.h"
#include "flag_parse.h"

namespace rst {
namespace {

struct ReplayFlags {
  std::string journal;
  std::string data;
  std::string algo = "journal";
  size_t threads = 1;
  std::string report;
  std::string heatmap_out;
  size_t max_diffs = 10;
};

int Usage() {
  std::fprintf(stderr,
               "usage: rst_replay --journal FILE [--data FILE]\n"
               "                  [--algo probe|cl|contribution-list|journal]\n"
               "                  [--threads N] [--report FILE]\n"
               "                  [--heatmap-out FILE] [--max-diffs N]\n"
               "(see the header of tools/rst_replay.cc)\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, ReplayFlags* flags) {
  for (int i = 1; i < argc;) {
    const std::string name = argv[i];
    std::string value;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[i + 1];
      i += 2;
    } else {
      value = "1";
      i += 1;
    }
    uint64_t number = 0;
    if (name == "--journal") {
      flags->journal = value;
    } else if (name == "--data") {
      flags->data = value;
    } else if (name == "--algo") {
      if (value != "probe" && value != "cl" && value != "contribution-list" &&
          value != "journal") {
        std::fprintf(stderr,
                     "--algo: '%s' is not one of probe cl contribution-list "
                     "journal\n",
                     value.c_str());
        return false;
      }
      flags->algo = value;
    } else if (name == "--threads") {
      if (!tools::ParseThreadCount(value, "threads", &flags->threads)) {
        return false;
      }
    } else if (name == "--report") {
      flags->report = value;
    } else if (name == "--heatmap-out") {
      flags->heatmap_out = value;
    } else if (name == "--max-diffs") {
      if (!tools::ParseUint(value, UINT64_MAX, &number)) {
        std::fprintf(stderr,
                     "--max-diffs: '%s' is not a non-negative integer\n",
                     value.c_str());
        return false;
      }
      flags->max_diffs = static_cast<size_t>(number);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", name.c_str());
      return false;
    }
  }
  return !flags->journal.empty();
}

WeightingOptions WeightingFromHeader(const obs::JournalHeader& header) {
  if (header.weighting == "lm") return {Weighting::kLanguageModel, 0.1};
  if (header.weighting == "binary") return {Weighting::kBinary, 0.1};
  return {Weighting::kTfIdf, 0.1};
}

TextMeasure MeasureFromHeader(const obs::JournalHeader& header) {
  if (header.measure == "cos") return TextMeasure::kCosine;
  if (header.measure == "sum") return TextMeasure::kSum;
  return TextMeasure::kExtendedJaccard;
}

/// Per-query comparison outcome feeding both the stderr diff lines and the
/// --report JSON.
struct QueryDiff {
  uint64_t index = 0;
  uint64_t recorded_digest = 0;
  uint64_t replayed_digest = 0;
  uint64_t recorded_answers = 0;
  uint64_t replayed_answers = 0;
  bool digest_match = false;
  bool stats_match = true;  ///< only meaningful when stats are comparable
  obs::JournalStats recorded_stats;
  obs::JournalStats replayed_stats;
};

int Main(int argc, char** argv) {
  ReplayFlags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();

  Result<obs::JournalFile> loaded = obs::ReadJournal(flags.journal);
  if (!loaded.ok()) {
    std::fprintf(stderr, "--journal: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  const obs::JournalFile& journal = loaded.value();
  if (journal.truncated_lines > 0) {
    std::fprintf(stderr,
                 "note: %llu torn trailing line(s) skipped (crash-truncated "
                 "capture)\n",
                 static_cast<unsigned long long>(journal.truncated_lines));
  }
  if (journal.records.empty()) {
    std::fprintf(stderr, "journal has no query records\n");
    return 2;
  }

  const std::string data_path =
      flags.data.empty() ? journal.header.data : flags.data;
  if (data_path.empty()) {
    std::fprintf(stderr,
                 "journal header has no dataset path; pass --data\n");
    return 2;
  }
  Result<Dataset> data =
      LoadDatasetIds(data_path, WeightingFromHeader(journal.header));
  if (!data.ok()) {
    std::fprintf(stderr, "--data: %s\n", data.status().ToString().c_str());
    return 2;
  }
  const Dataset& dataset = data.value();
  // Replayed over another dataset, every query would only show up as a
  // mismatch; a header that names its dataset says so before replaying.
  const std::string dataset_digest =
      obs::DigestHex(exec::DatasetDigest(dataset));
  if (!journal.header.dataset_digest.empty() &&
      journal.header.dataset_digest != dataset_digest) {
    std::fprintf(stderr,
                 "--data: %s is not the captured dataset: its digest is %s, "
                 "the journal header's dataset_digest is %s\n",
                 data_path.c_str(), dataset_digest.c_str(),
                 journal.header.dataset_digest.c_str());
    return 1;
  }

  const std::string algo_name =
      flags.algo == "journal"
          ? journal.header.algo
          : (flags.algo == "cl" || flags.algo == "contribution-list"
                 ? "contribution_list"
                 : "probe");
  const RstknnAlgorithm algo = algo_name == "contribution_list"
                                   ? RstknnAlgorithm::kContributionList
                                   : RstknnAlgorithm::kProbe;
  // Stats depend on the algorithm and the index shape — one IUR tree, not a
  // CIUR tree or a sharded forest — but not on the thread count; digests
  // depend on none of these.
  const bool stats_comparable = algo_name == journal.header.algo &&
                                journal.header.tree == "iur" &&
                                journal.header.shards == 0;

  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));

  TextSimilarity sim(MeasureFromHeader(journal.header),
                     &dataset.corpus_max());
  StScorer scorer(&sim, {journal.header.alpha, dataset.max_dist()});

  // Reconstruct the queries. Docs need stable storage: TermVectors for
  // ad-hoc queries live in `docs` (journal weights round-trip exactly);
  // self-queries take the dataset object's own doc, as captured.
  const size_t n = journal.records.size();
  std::vector<TermVector> docs(n);
  std::vector<RstknnQuery> queries(n);
  for (size_t i = 0; i < n; ++i) {
    const obs::JournalQueryRecord& r = journal.records[i];
    RstknnQuery& q = queries[i];
    q.k = r.k;
    if (r.self != obs::JournalQueryRecord::kNoSelf &&
        r.self < dataset.size()) {
      const StObject& object = dataset.object(static_cast<ObjectId>(r.self));
      q.loc = object.loc;
      q.doc = &object.doc;
      q.self = static_cast<ObjectId>(r.self);
    } else {
      std::vector<TermWeight> terms;
      terms.reserve(r.terms.size());
      for (const auto& [term, weight] : r.terms) {
        terms.push_back({term, weight});
      }
      docs[i] = TermVector::FromSorted(std::move(terms));
      q.loc = {r.x, r.y};
      q.doc = &docs[i];
    }
  }

  // Execute through the batch runner (ThreadPool(1) runs inline); the
  // heatmap merges the workers' private recorders after the join.
  RstknnOptions options;
  options.algorithm = algo;
  obs::HeatmapRecorder heatmap;
  options.heatmap = &heatmap;
  exec::ThreadPool pool(flags.threads);
  const exec::BatchRunner runner(&tree, &dataset, &scorer, &pool);
  exec::BatchStats batch;
  const std::vector<RstknnResult> results =
      runner.RunRstknn(queries, options, &batch);

  // Compare against the capture.
  std::vector<QueryDiff> diffs(n);
  size_t digest_mismatches = 0;
  size_t stats_mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    const obs::JournalQueryRecord& r = journal.records[i];
    QueryDiff& d = diffs[i];
    d.index = r.index;
    d.recorded_digest = r.answer_digest;
    d.replayed_digest = obs::AnswerDigest(results[i].answers);
    d.recorded_answers = r.answer_count;
    d.replayed_answers = results[i].answers.size();
    d.digest_match = d.recorded_digest == d.replayed_digest &&
                     d.recorded_answers == d.replayed_answers;
    d.recorded_stats = r.stats;
    d.replayed_stats = exec::ToJournalStats(results[i].stats);
    if (stats_comparable) {
      d.stats_match = d.replayed_stats == d.recorded_stats;
      if (!d.stats_match) ++stats_mismatches;
    }
    if (!d.digest_match) ++digest_mismatches;
  }

  size_t printed = 0;
  for (const QueryDiff& d : diffs) {
    if (d.digest_match && d.stats_match) continue;
    if (printed++ >= flags.max_diffs) continue;
    if (!d.digest_match) {
      std::fprintf(stderr,
                   "query %llu: ANSWER DIGEST MISMATCH recorded=%s (%llu "
                   "answers) replayed=%s (%llu answers)\n",
                   static_cast<unsigned long long>(d.index),
                   obs::DigestHex(d.recorded_digest).c_str(),
                   static_cast<unsigned long long>(d.recorded_answers),
                   obs::DigestHex(d.replayed_digest).c_str(),
                   static_cast<unsigned long long>(d.replayed_answers));
    } else {
      std::fprintf(stderr, "query %llu: stats diverged (%s)\n",
                   static_cast<unsigned long long>(d.index),
                   d.recorded_stats.Diff(d.replayed_stats).c_str());
    }
  }
  if (printed > flags.max_diffs) {
    std::fprintf(stderr, "... %zu more diffs suppressed (--max-diffs)\n",
                 printed - flags.max_diffs);
  }

  // The heatmap must reconcile EXACTLY with the summed stats — the same
  // contract ExplainRecorder::CheckReconciles enforces per query.
  const Status reconciled = heatmap.CheckReconciles(
      batch.total.expansions, batch.total.pruned_entries,
      batch.total.reported_entries);
  if (!reconciled.ok()) {
    std::fprintf(stderr, "%s\n", reconciled.ToString().c_str());
  }

  // --- aggregate analytics ---
  std::printf("replayed %zu queries (%s, %zu threads) in %.2f ms\n", n,
              algo_name.c_str(), flags.threads, batch.wall_ms);
  std::printf("digest mismatches: %zu/%zu\n", digest_mismatches, n);
  if (stats_comparable) {
    std::printf("stats mismatches:  %zu/%zu\n", stats_mismatches, n);
  } else {
    std::printf("stats mismatches:  n/a (capture algo=%s tree=%s shards=%llu)\n",
                journal.header.algo.c_str(), journal.header.tree.c_str(),
                static_cast<unsigned long long>(journal.header.shards));
  }
  std::printf("heatmap reconciliation: %s\n",
              reconciled.ok() ? "exact" : "FAILED");

  std::printf("\nper-level prune efficiency:\n");
  std::printf("  %-6s %10s %10s %10s %10s %12s\n", "level", "visits",
              "pruned", "expanded", "reported", "prune_rate");
  for (const obs::DecisionCounters& level : heatmap.LevelSummaries()) {
    const uint64_t decided = level.pruned + level.reported_miss;
    std::printf("  %-6u %10llu %10llu %10llu %10llu %11.1f%%\n", level.level,
                static_cast<unsigned long long>(level.visits),
                static_cast<unsigned long long>(level.pruned),
                static_cast<unsigned long long>(level.expanded),
                static_cast<unsigned long long>(level.reported_hit +
                                                level.reported_miss),
                level.visits > 0
                    ? 100.0 * static_cast<double>(decided) /
                          static_cast<double>(level.visits)
                    : 0.0);
  }

  const obs::DecisionCounters& totals = heatmap.totals();
  const uint64_t fires = totals.lower_bound_fires + totals.upper_bound_fires +
                         totals.exact_fires;
  std::printf("\nbound-fire frequency (%llu decisions with a bound):\n",
              static_cast<unsigned long long>(fires));
  const auto fire_line = [fires](const char* name, uint64_t count) {
    std::printf("  %-12s %10llu %11.1f%%\n", name,
                static_cast<unsigned long long>(count),
                fires > 0 ? 100.0 * static_cast<double>(count) /
                                static_cast<double>(fires)
                          : 0.0);
  };
  fire_line("lower_bound", totals.lower_bound_fires);
  fire_line("upper_bound", totals.upper_bound_fires);
  fire_line("exact", totals.exact_fires);

  std::printf("\nhottest nodes (by visits):\n");
  std::vector<std::pair<uint64_t, obs::DecisionCounters>> hot(
      heatmap.nodes().begin(), heatmap.nodes().end());
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.second.visits != b.second.visits) {
      return a.second.visits > b.second.visits;
    }
    return a.first < b.first;
  });
  for (size_t i = 0; i < hot.size() && i < 10; ++i) {
    std::printf("  node %-6llu L%-3u visits=%llu pruned=%llu expanded=%llu "
                "reported=%llu\n",
                static_cast<unsigned long long>(hot[i].first),
                hot[i].second.level,
                static_cast<unsigned long long>(hot[i].second.visits),
                static_cast<unsigned long long>(hot[i].second.pruned),
                static_cast<unsigned long long>(hot[i].second.expanded),
                static_cast<unsigned long long>(hot[i].second.reported_hit +
                                                hot[i].second.reported_miss));
  }

  std::printf("\nhottest query terms (by occurrences):\n");
  std::map<uint32_t, std::pair<uint64_t, double>> term_heat;
  for (const RstknnQuery& q : queries) {
    if (q.doc == nullptr) continue;
    for (const TermWeight& tw : q.doc->entries()) {
      auto& [count, weight] = term_heat[tw.term];
      ++count;
      weight += static_cast<double>(tw.weight);
    }
  }
  std::vector<std::pair<uint32_t, std::pair<uint64_t, double>>> terms(
      term_heat.begin(), term_heat.end());
  std::sort(terms.begin(), terms.end(), [](const auto& a, const auto& b) {
    if (a.second.first != b.second.first) {
      return a.second.first > b.second.first;
    }
    return a.first < b.first;
  });
  for (size_t i = 0; i < terms.size() && i < 10; ++i) {
    std::printf("  term %-8u queries=%llu total_weight=%.3f\n",
                terms[i].first,
                static_cast<unsigned long long>(terms[i].second.first),
                terms[i].second.second);
  }

  if (!flags.heatmap_out.empty()) {
    const Status s = WriteStringToFileAtomic(flags.heatmap_out,
                                             heatmap.ToJson());
    if (!s.ok()) {
      std::fprintf(stderr, "--heatmap-out: %s\n", s.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "heatmap written to %s\n", flags.heatmap_out.c_str());
  }

  if (!flags.report.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("journal");
    w.String(flags.journal);
    w.Key("replay");
    w.BeginObject();
    w.Key("algo");
    w.String(algo_name);
    w.Key("threads");
    w.Uint(flags.threads);
    w.Key("stats_comparable");
    w.Bool(stats_comparable);
    w.EndObject();
    w.Key("queries");
    w.Uint(n);
    w.Key("digest_mismatches");
    w.Uint(digest_mismatches);
    w.Key("stats_mismatches");
    w.Uint(stats_comparable ? stats_mismatches : 0);
    w.Key("reconciled");
    w.Bool(reconciled.ok());
    w.Key("per_query");
    w.BeginArray();
    for (const QueryDiff& d : diffs) {
      w.BeginObject();
      w.Key("index");
      w.Uint(d.index);
      w.Key("digest_match");
      w.Bool(d.digest_match);
      w.Key("recorded_digest");
      w.String(obs::DigestHex(d.recorded_digest));
      w.Key("replayed_digest");
      w.String(obs::DigestHex(d.replayed_digest));
      w.Key("recorded_answers");
      w.Uint(d.recorded_answers);
      w.Key("replayed_answers");
      w.Uint(d.replayed_answers);
      if (stats_comparable) {
        w.Key("stats_match");
        w.Bool(d.stats_match);
      }
      w.Key("recorded_stats");
      d.recorded_stats.AppendJson(&w);
      w.Key("replayed_stats");
      d.replayed_stats.AppendJson(&w);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const Status s = WriteStringToFileAtomic(flags.report, w.str());
    if (!s.ok()) {
      std::fprintf(stderr, "--report: %s\n", s.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "diff report written to %s\n", flags.report.c_str());
  }

  const bool failed =
      digest_mismatches > 0 || !reconciled.ok() ||
      (stats_comparable && stats_mismatches > 0);
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace rst

int main(int argc, char** argv) { return rst::Main(argc, argv); }
