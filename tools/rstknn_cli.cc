// rstknn_cli — command-line front end for the library, operating on the
// CSV/TSV interchange formats of rst/data/csv.h.
//
//   rstknn_cli gen      --kind flickr|yelp|geonames --objects N --out F
//   rstknn_cli genusers --data F --num N --ul K --uw W --area A --out F2
//   rstknn_cli stats    --data F
//   rstknn_cli topk     --data F --x X --y Y --keywords "1 2 3" --k K
//   rstknn_cli rstknn   --data F (--id QID | --ids "3 5 7" |
//                       --x X --y Y --keywords "...") --k K [--threads N]
//                       Every query runs through the rst::exec BatchRunner
//                       on N workers (default 1): --id or --keywords is a
//                       batch of one and prints one answer id per line;
//                       --ids is a batch of the listed objects and prints
//                       "<query_id>\t<answer_id>" per answer. Answers are
//                       identical at any N, and every flag below behaves the
//                       same for one query and for many (instruments report
//                       the whole batch). Ids must be decimal integers below
//                       the dataset size and thread counts integers in
//                       [1, 1024]; anything else exits 2.
//   rstknn_cli maxbrst  --data F --users F2 --locations "x:y;x:y"
//                       --keywords "1 2 3" --ws W --k K [--method exact]
//
// Common flags: --weighting tfidf|lm|binary (tfidf) on every command;
// --alpha A (0.5, in [0, 1]) on topk, rstknn and maxbrst; --measure
// ej|cos|sum (ej) on topk and rstknn (maxbrst always scores with sum);
// --seed S on gen and genusers. Each command accepts exactly the flags listed
// for it here, and any other flag exits 2 naming it. Every flag value is
// parsed strictly — counts are non-negative decimal integers, coordinates
// and thresholds finite numbers, --locations pairs x:y numbers, and --kind,
// --measure, --weighting, --algo and --method one of their listed values —
// and anything else exits 2 with a message naming the flag.
//
// Observability flags (topk / rstknn / maxbrst):
//   --trace             print the per-phase span tree of the query (for
//                       rstknn: of the whole batch, merged by name) to stderr
//   --metrics-out FILE  write a JSON artifact: {"command", "metrics"
//                       (registry snapshot: counters/gauges/histograms),
//                       "trace" (span tree), "explain" (with --explain),
//                       "phases" (with --profile)}. It only observes:
//                       answers and the simulated I/O counts are the same
//                       with it and without it.
//
// Index flags (rstknn only). Queries always run over the frozen flat-layout
// snapshot (rst::frozen): the command builds the IUR-tree, freezes it and
// drops the builder, or loads a saved snapshot.
//   --save-index FILE   persist the frozen snapshot (versioned format);
//                       with no query flags (--id/--ids/--keywords) the
//                       command exits after saving
//   --load-index FILE   answer over a previously saved snapshot instead of
//                       rebuilding the tree (--data must still name the
//                       dataset the index was built from; a snapshot whose
//                       object count or ids do not fit it exits 1)
//   --check-invariants  validate the index before answering (DESIGN.md
//                       §11.2); exits non-zero with the precise violation on
//                       corruption. A built tree gets the deep check (tight
//                       MBRs, summaries equal to the merge of their children,
//                       cluster partitions, level leaves, summary domination)
//                       and then the snapshot check. A loaded snapshot gets
//                       only the snapshot check (links, levels, pool slices,
//                       sorted non-negative weights, summary domination) on
//                       top of the leaf match every --load-index runs; its
//                       MBR tightness, summary merges and cluster partitions
//                       are not checked
//
// Profiling flags (rstknn; DESIGN.md §12):
//   --profile           attribute each query's wall time into the fixed phase
//                       set (descent / bounds / merge / io / finalize),
//                       publish rstknn.phase.* latency histograms, print the
//                       batch's summed per-phase table to stderr and embed
//                       it in the --metrics-out artifact
//   --trace-out FILE    write Chrome trace-event JSON (open in Perfetto or
//                       chrome://tracing): per-worker run / queue-wait
//                       timelines with each query's span tree nested under
//                       its run slice
//   --trace-sample N    keep the full span tree of every N-th query in the
//                       trace-event output (N >= 1; default 1 = all)
//   --telemetry-ms N    sample process runtime telemetry (RSS, page faults,
//                       CPU time, thread count) every N ms into runtime.*
//                       gauges, visible in the --metrics-out snapshot
//
// EXPLAIN flags (rstknn only):
//   --explain           print the per-level branch-and-bound decision
//                       summary (which bound fired, prune/expand/report),
//                       summed over the batch, to stderr and embed it in the
//                       --metrics-out artifact
//   --explain-log N     also keep the batch's first N raw decisions (0 =
//                       summary only, the default)
//   --algo probe|cl     algorithm realization: competitor probes (default)
//                       or the 2011 contribution-list scheme
//
// Workload capture / heatmap flags (rstknn only; DESIGN.md §14):
//   --journal-out FILE  write a crash-atomic JSONL workload journal — a
//                       header naming the dataset by path and digest, then
//                       one record per admitted query (query object,
//                       wall/phase timings, stats, FNV-1a64 answer digest) —
//                       replayable with tools/rst_replay
//   --journal-sample N  record every N-th query by batch index (N >= 1;
//                       default 1; with --slow-log-ms and no
//                       --journal-sample, none)
//   --slow-log-ms X     record every query that ran for at least X ms
//                       (X >= 0), and give each record the query's span
//                       tree ("trace") and EXPLAIN summary ("explain"). On
//                       its own it journals only the slow queries; an
//                       explicit --journal-sample N also keeps every N-th.
//                       Needs --journal-out (exit 2 without)
//   --heatmap-out FILE  accumulate per-node visit/prune/expand/report
//                       counters across the run (merged across workers)
//                       and write the heatmap JSON; exits
//                       non-zero if the totals fail to reconcile exactly
//                       with the summed RstknnStats
//
// Output-file errors (--metrics-out / --journal-out on an unwritable path)
// exit non-zero with the underlying Status message.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/data/csv.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/frozen/frozen.h"
#include "rst/maxbrst/maxbrst.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/runtime.h"
#include "rst/obs/trace.h"
#include "rst/obs/trace_event.h"
#include "rst/rstknn/rstknn.h"
#include "flag_parse.h"

namespace rst {
namespace {

using tools::ParseUint;

/// Parses a finite decimal number in [lo, hi]: the whole token, no
/// surrounding junk, no inf/nan.
bool ParseDouble(std::string_view token, double* out,
                 double lo = std::numeric_limits<double>::lowest(),
                 double hi = std::numeric_limits<double>::max()) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag [value], got '%s'\n", argv[i]);
        std::exit(2);
      }
      // A flag followed by another --flag (or nothing) is boolean, e.g.
      // --trace.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[argv[i] + 2] = argv[i + 1];
        i += 2;
      } else {
        values_[argv[i] + 2] = "1";
        i += 1;
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  /// --name as a decimal integer in [0, max], `fallback` when absent.
  /// Anything else — a sign, junk, overflow — exits 2 naming the flag.
  uint64_t Uint(const std::string& name, uint64_t fallback,
                uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    uint64_t value = 0;
    if (!ParseUint(it->second, max, &value)) {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer",
                   name.c_str(), it->second.c_str());
      if (max != std::numeric_limits<uint64_t>::max()) {
        std::fprintf(stderr, " <= %llu", static_cast<unsigned long long>(max));
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    return value;
  }
  /// --name as a decimal integer >= 1, `fallback` when absent; 0, like any
  /// value Uint rejects, exits 2 naming the flag.
  uint64_t Positive(const std::string& name, uint64_t fallback) const {
    const uint64_t value = Uint(name, fallback);
    if (value == 0) {
      std::fprintf(stderr, "--%s: '0' is not an integer >= 1\n", name.c_str());
      std::exit(2);
    }
    return value;
  }
  /// --name as a finite number in [lo, hi], `fallback` when absent;
  /// anything else exits 2 naming the flag.
  double Double(const std::string& name, double fallback,
                double lo = std::numeric_limits<double>::lowest(),
                double hi = std::numeric_limits<double>::max()) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParseDouble(it->second, &value, lo, hi)) {
      std::fprintf(stderr, "--%s: '%s' is not a finite number", name.c_str(),
                   it->second.c_str());
      const bool has_lo = lo != std::numeric_limits<double>::lowest();
      const bool has_hi = hi != std::numeric_limits<double>::max();
      if (has_lo && has_hi) {
        std::fprintf(stderr, " in [%g, %g]", lo, hi);
      } else if (has_lo) {
        std::fprintf(stderr, " >= %g", lo);
      } else if (has_hi) {
        std::fprintf(stderr, " <= %g", hi);
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    return value;
  }
  /// --name as one of `allowed`, `fallback` when absent; anything else exits
  /// 2 naming the flag and the accepted values.
  std::string Enum(const std::string& name, const std::string& fallback,
                   std::initializer_list<std::string_view> allowed) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (std::find(allowed.begin(), allowed.end(), it->second) !=
        allowed.end()) {
      return it->second;
    }
    std::fprintf(stderr, "--%s: '%s' is not one of", name.c_str(),
                 it->second.c_str());
    for (const std::string_view value : allowed) {
      std::fprintf(stderr, " %.*s", static_cast<int>(value.size()),
                   value.data());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  /// --alpha, the spatial weight of SimST: a number in [0, 1].
  double Alpha() const { return Double("alpha", 0.5, 0.0, 1.0); }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// The first given flag not in `accepted` (without its "--"); "" if none.
  std::string FirstUnknown(
      const std::vector<std::string_view>& accepted) const {
    for (const auto& entry : values_) {
      if (std::find(accepted.begin(), accepted.end(), entry.first) ==
          accepted.end()) {
        return entry.first;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Whitespace-separated term ids; nullopt (after a message naming `flag`)
/// on a token that is not a 32-bit unsigned integer.
std::optional<std::vector<TermId>> ParseTerms(const std::string& s,
                                              const char* flag) {
  std::vector<TermId> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) {
    uint64_t term = 0;
    if (!ParseUint(tok, std::numeric_limits<TermId>::max(), &term)) {
      std::fprintf(stderr, "%s: '%s' is not a term id\n", flag, tok.c_str());
      return std::nullopt;
    }
    out.push_back(static_cast<TermId>(term));
  }
  return out;
}

/// One query object id of --id / --ids: a decimal integer below
/// `num_objects`; false (after a message naming `flag`) otherwise.
bool ParseObjectId(const std::string& token, size_t num_objects,
                   const char* flag, ObjectId* id) {
  uint64_t value = 0;
  if (num_objects == 0 || !ParseUint(token, num_objects - 1, &value)) {
    std::fprintf(stderr, "%s: '%s' is not an object id in [0, %zu)\n", flag,
                 token.c_str(), num_objects);
    return false;
  }
  *id = static_cast<ObjectId>(value);
  return true;
}

/// `;`-separated `x:y` candidate locations (empty pieces are skipped);
/// nullopt (after a message) on a piece that is not two finite numbers.
std::optional<std::vector<Point>> ParseLocations(const std::string& s) {
  std::vector<Point> out;
  std::istringstream in(s);
  std::string pair;
  while (std::getline(in, pair, ';')) {
    if (pair.empty()) continue;
    const size_t colon = pair.find(':');
    const std::string_view view(pair);
    Point p;
    if (colon == std::string::npos ||
        !ParseDouble(view.substr(0, colon), &p.x) ||
        !ParseDouble(view.substr(colon + 1), &p.y)) {
      std::fprintf(stderr, "--locations: '%s' is not an x:y pair\n",
                   pair.c_str());
      return std::nullopt;
    }
    out.push_back(p);
  }
  return out;
}

/// Observability switches shared by the query commands.
struct ObsFlags {
  bool trace = false;           ///< print the span tree to stderr
  std::string metrics_out;      ///< JSON artifact path ("" = off)
  bool explain = false;         ///< record + print branch-and-bound decisions
  size_t explain_log = 0;       ///< raw decision-log cap (0 = summary only)
  bool profile = false;         ///< per-phase latency attribution
  std::string trace_out;        ///< Chrome trace-event JSON path ("" = off)
  uint64_t trace_sample = 1;    ///< span tree of every N-th batch query
  long telemetry_ms = -1;       ///< runtime sampling period (< 0 = off)
  std::string journal_out;      ///< workload-journal JSONL path ("" = off)
  uint64_t journal_sample = 1;  ///< journal every N-th query (0 = none)
  double slow_ms = -1.0;        ///< journal latency threshold (< 0 = off)
  std::string heatmap_out;      ///< index-heatmap JSON path ("" = off)

  explicit ObsFlags(const Flags& flags)
      : trace(flags.Has("trace")),
        metrics_out(flags.Get("metrics-out", "")),
        explain(flags.Has("explain")),
        explain_log(flags.Uint("explain-log", 0)),
        profile(flags.Has("profile")),
        trace_out(flags.Get("trace-out", "")),
        trace_sample(flags.Positive("trace-sample", 1)),
        telemetry_ms(flags.Has("telemetry-ms")
                         ? static_cast<long>(flags.Uint(
                               "telemetry-ms", 1,
                               std::numeric_limits<long>::max()))
                         : -1),
        journal_out(flags.Get("journal-out", "")),
        // With a latency threshold and no explicit stride, latency alone
        // admits (stride 0).
        journal_sample(
            flags.Has("journal-sample")
                ? flags.Positive("journal-sample", 1)
                : (flags.Has("slow-log-ms") ? 0 : 1)),
        slow_ms(flags.Double("slow-log-ms", -1.0, /*lo=*/0.0)),
        heatmap_out(flags.Get("heatmap-out", "")) {}

  bool tracing() const {
    return trace || !metrics_out.empty() || !trace_out.empty();
  }
};

/// Finishes the trace and emits the requested artifacts: the span tree on
/// stderr (--trace), the combined JSON file (--metrics-out) holding the full
/// registry snapshot of this process plus the span tree (and, when recorded,
/// the phase table and the explain report), and the Chrome trace-event file
/// (--trace-out). Unwritable paths exit non-zero with the Status message.
int EmitObsArtifacts(const ObsFlags& obs_flags, const std::string& command,
                     obs::QueryTrace* trace,
                     const obs::ExplainRecorder* explain = nullptr,
                     const obs::PhaseProfiler* profiler = nullptr,
                     const obs::TraceEventWriter* trace_events = nullptr) {
  if (obs_flags.tracing()) trace->Finish();
  if (obs_flags.trace) {
    std::fprintf(stderr, "%s", trace->ToString().c_str());
  }
  if (!obs_flags.metrics_out.empty()) {
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("command");
    writer.String(command);
    writer.Key("metrics");
    obs::MetricRegistry::Global().Snapshot().AppendJson(&writer);
    writer.Key("trace");
    trace->AppendJson(&writer);
    if (profiler != nullptr) {
      writer.Key("phases");
      profiler->AppendJson(&writer);
    }
    if (explain != nullptr) {
      writer.Key("explain");
      explain->AppendJson(&writer);
    }
    writer.EndObject();
    const Status s =
        WriteStringToFileAtomic(obs_flags.metrics_out, writer.str());
    if (!s.ok()) {
      std::fprintf(stderr, "--metrics-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n",
                 obs_flags.metrics_out.c_str());
  }
  if (!obs_flags.trace_out.empty() && trace_events != nullptr) {
    const Status s = trace_events->WriteFile(obs_flags.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "--trace-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace events (%zu kept, %llu dropped) written to %s\n",
                 trace_events->size(),
                 static_cast<unsigned long long>(trace_events->dropped()),
                 obs_flags.trace_out.c_str());
  }
  return 0;
}

WeightingOptions ParseWeighting(const Flags& flags) {
  const std::string w =
      flags.Enum("weighting", "tfidf", {"tfidf", "lm", "binary"});
  if (w == "lm") return {Weighting::kLanguageModel, 0.1};
  if (w == "binary") return {Weighting::kBinary, 0.1};
  return {Weighting::kTfIdf, 0.1};
}

TextMeasure ParseMeasure(const Flags& flags, TextMeasure fallback) {
  const std::string m = flags.Enum("measure", "", {"ej", "cos", "sum"});
  if (m == "ej") return TextMeasure::kExtendedJaccard;
  if (m == "cos") return TextMeasure::kCosine;
  if (m == "sum") return TextMeasure::kSum;
  return fallback;
}

RstknnAlgorithm ParseAlgorithm(const Flags& flags) {
  const std::string a =
      flags.Enum("algo", "probe", {"probe", "cl", "contribution-list"});
  return a == "probe" ? RstknnAlgorithm::kProbe
                      : RstknnAlgorithm::kContributionList;
}

/// Capture context for a workload journal (DESIGN.md §14): everything
/// rst_replay needs to rebuild the same index and scorer, normalized to the
/// CLI's own flag vocabulary, plus the admission rule and the dataset's
/// digest.
obs::JournalHeader MakeJournalHeader(const Flags& flags,
                                     const ObsFlags& obs_flags,
                                     const Dataset& dataset,
                                     uint64_t threads) {
  obs::JournalHeader header;
  header.label = obs::names::kTraceRstknn;
  header.data = flags.Get("data", "objects.csv");
  header.algo = ParseAlgorithm(flags) == RstknnAlgorithm::kContributionList
                    ? "contribution_list"
                    : "probe";
  header.tree = "iur";  // the CLI builds an unclustered IUR-tree
  header.measure = flags.Get("measure", "ej");
  header.weighting = flags.Get("weighting", "tfidf");
  header.alpha = flags.Alpha();
  header.threads = threads;
  header.sample_every = obs_flags.journal_sample;
  header.slow_ms = obs_flags.slow_ms;
  header.dataset_digest = obs::DigestHex(exec::DatasetDigest(dataset));
  return header;
}

/// Writes the heatmap JSON after verifying its totals reconcile exactly with
/// the summed per-query stats; any mismatch or write failure is fatal so
/// scripted runs can gate on it (same contract as the CI counter gate).
int EmitHeatmap(const std::string& path, const obs::HeatmapRecorder& heatmap,
                const RstknnStats& total) {
  const Status reconciled = heatmap.CheckReconciles(
      total.expansions, total.pruned_entries, total.reported_entries);
  if (!reconciled.ok()) {
    std::fprintf(stderr, "--heatmap-out: %s\n", reconciled.ToString().c_str());
    return 1;
  }
  const Status s = WriteStringToFileAtomic(path, heatmap.ToJson());
  if (!s.ok()) {
    std::fprintf(stderr, "--heatmap-out: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "heatmap (%llu queries, %llu decisions over %zu nodes) written "
               "to %s\n",
               static_cast<unsigned long long>(heatmap.queries()),
               static_cast<unsigned long long>(heatmap.decisions()),
               heatmap.nodes().size(), path.c_str());
  return 0;
}

/// Closes the journal and reports it; a latched append error is fatal.
int FinishJournal(obs::WorkloadRecorder* journal, const std::string& path) {
  const uint64_t recorded = journal->recorded();
  const Status s = journal->Close();
  if (!s.ok()) {
    std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "workload journal (%llu records) written to %s\n",
               static_cast<unsigned long long>(recorded), path.c_str());
  return 0;
}

int CmdGen(const Flags& flags) {
  const std::string kind =
      flags.Enum("kind", "flickr", {"flickr", "yelp", "geonames"});
  const size_t n =
      flags.Uint("objects", 10000, std::numeric_limits<ObjectId>::max());
  const uint64_t seed = flags.Uint("seed", 1);
  const WeightingOptions weighting = ParseWeighting(flags);
  Dataset dataset;
  if (kind == "yelp") {
    YelpLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenYelpLike(config, weighting);
  } else if (kind == "geonames") {
    GeoNamesLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenGeoNamesLike(config, weighting);
  } else {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenFlickrLike(config, weighting);
  }
  const std::string out = flags.Get("out", "objects.csv");
  const Status s = SaveDatasetIds(dataset, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu %s-like objects to %s\n", dataset.size(),
              kind.c_str(), out.c_str());
  return 0;
}

Result<Dataset> LoadData(const Flags& flags) {
  return LoadDatasetIds(flags.Get("data", "objects.csv"),
                        ParseWeighting(flags));
}

int CmdGenUsers(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  UserGenConfig config;
  config.num_users =
      flags.Uint("num", 100, std::numeric_limits<ObjectId>::max());
  config.keywords_per_user = flags.Uint("ul", 3);
  config.num_unique_keywords = flags.Uint("uw", 20);
  config.area_extent = flags.Double("area", 5.0);
  config.seed = flags.Uint("seed", 11);
  const GeneratedUsers gen = GenUsers(data.value(), config);
  const std::string out = flags.Get("out", "users.csv");
  const Status s = SaveUsersIds(gen.users, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu users to %s\ncandidate keyword pool (W):",
              gen.users.size(), out.c_str());
  for (TermId w : gen.candidate_keywords) std::printf(" %u", w);
  std::printf("\n");
  return 0;
}

int CmdStats(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const DatasetStatsRow row = ComputeDatasetStats(data.value());
  const IurTree tree = IurTree::BuildFromDataset(data.value(), {});
  std::printf("objects:            %zu\n", row.total_objects);
  std::printf("unique terms:       %zu\n", row.total_unique_terms);
  std::printf("avg terms/object:   %.2f\n", row.avg_unique_terms_per_object);
  std::printf("total terms:        %llu\n",
              static_cast<unsigned long long>(row.total_terms));
  std::printf("bounds:             %s\n", data.value().bounds().ToString().c_str());
  std::printf("iur-tree:           height %zu, %zu nodes, %llu bytes\n",
              tree.height(), tree.NodeCount(),
              static_cast<unsigned long long>(tree.IndexBytes()));

  // Corpus-level distributions, aggregated with the obs histogram type:
  // term document frequencies (how skewed the vocabulary is — drives the
  // text-bound tightness) and per-object document lengths.
  const Dataset& dataset = data.value();
  obs::Histogram term_freq(obs::HistogramSpec::Exponential(1.0, 2.0, 16));
  const CorpusStats& corpus = dataset.stats();
  size_t used_terms = 0;
  for (TermId t = 0; t < corpus.vocab_size(); ++t) {
    const uint32_t df = corpus.DocFreq(t);
    if (df == 0) continue;
    ++used_terms;
    term_freq.Record(static_cast<double>(df));
  }
  obs::Histogram doc_len(obs::HistogramSpec::Linear(1.0, 1.0, 64));
  for (const StObject& o : dataset.objects()) {
    doc_len.Record(static_cast<double>(o.doc.size()));
  }
  std::printf("term doc-freq:      p50 %.0f, p90 %.0f, p99 %.0f, max %.0f "
              "(%zu used terms)\n",
              term_freq.Percentile(0.5), term_freq.Percentile(0.9),
              term_freq.Percentile(0.99), term_freq.snapshot().max,
              used_terms);
  std::printf("doc length:         mean %.2f, p50 %.0f, p90 %.0f, p99 %.0f, "
              "max %.0f\n",
              doc_len.snapshot().Mean(), doc_len.Percentile(0.5),
              doc_len.Percentile(0.9), doc_len.Percentile(0.99),
              doc_len.snapshot().max);
  return 0;
}

int CmdTopK(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  const IurTree tree = IurTree::BuildFromDataset(dataset, {});
  TextSimilarity sim(ParseMeasure(flags, TextMeasure::kExtendedJaccard),
                     &dataset.corpus_max());
  StScorer scorer(&sim, {flags.Alpha(), dataset.max_dist()});
  TopKSearcher searcher(&tree, &dataset, &scorer);
  const std::optional<std::vector<TermId>> terms =
      ParseTerms(flags.Get("keywords", ""), "--keywords");
  if (!terms.has_value()) return 2;
  const TermVector qdoc = TermVector::FromTerms(*terms);
  TopKQuery query;
  query.loc = {flags.Double("x", 0), flags.Double("y", 0)};
  query.doc = &qdoc;
  query.k = flags.Uint("k", 10);
  const ObsFlags obs_flags(flags);
  obs::QueryTrace trace(obs::names::kTraceTopk);
  IoStats io;
  Stopwatch timer;
  const auto results =
      searcher.Search(query, &io, obs_flags.tracing() ? &trace : nullptr);
  const double ms = timer.ElapsedMillis();
  for (const TopKResult& r : results) {
    std::printf("%u\t%.6f\n", r.id, r.score);
  }
  std::fprintf(stderr, "%zu results in %.2f ms, %llu simulated I/Os\n",
               results.size(), ms,
               static_cast<unsigned long long>(io.TotalIos()));
  return EmitObsArtifacts(obs_flags, "topk", &trace);
}

int CmdRstknn(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  TextSimilarity sim(ParseMeasure(flags, TextMeasure::kExtendedJaccard),
                     &dataset.corpus_max());
  StScorer scorer(&sim, {flags.Alpha(), dataset.max_dist()});

  // Runtime telemetry starts before the index build so the runtime.* gauges
  // cover the build's memory growth, not just the queries.
  const ObsFlags obs_flags(flags);
  if (obs_flags.slow_ms >= 0.0 && obs_flags.journal_out.empty()) {
    std::fprintf(stderr,
                 "--slow-log-ms: records slow queries into the journal; "
                 "give --journal-out too\n");
    return 2;
  }
  size_t threads = 1;
  if (!tools::ParseThreadCount(flags.Get("threads", "1"), "threads",
                               &threads)) {
    return 2;
  }

  // The query list, validated before the index build: every object of
  // --ids, the object of --id, or one ad-hoc --keywords/--x/--y query.
  const bool batch_output = flags.Has("ids");
  const size_t k = flags.Uint("k", 10);
  std::vector<ObjectId> ids;
  TermVector qdoc;
  std::vector<RstknnQuery> queries;
  if (batch_output) {
    std::istringstream in(flags.Get("ids", ""));
    std::string token;
    while (in >> token) {
      ObjectId id = 0;
      if (!ParseObjectId(token, dataset.size(), "--ids", &id)) return 2;
      ids.push_back(id);
    }
    if (ids.empty()) {
      std::fprintf(stderr, "--ids must list at least one object id\n");
      return 2;
    }
  } else if (flags.Has("id")) {
    ObjectId id = 0;
    if (!ParseObjectId(flags.Get("id", ""), dataset.size(), "--id", &id)) {
      return 2;
    }
    ids.push_back(id);
  } else {
    const std::optional<std::vector<TermId>> terms =
        ParseTerms(flags.Get("keywords", ""), "--keywords");
    if (!terms.has_value()) return 2;
    qdoc = TermVector::FromTerms(*terms);
    queries.push_back({{flags.Double("x", 0), flags.Double("y", 0)},
                       &qdoc, k, IurTree::kNoObject});
  }
  for (ObjectId id : ids) {
    queries.push_back(
        {dataset.object(id).loc, &dataset.object(id).doc, k, id});
  }

  obs::RuntimeSampler sampler;
  if (obs_flags.telemetry_ms >= 0) {
    sampler.Start(static_cast<uint64_t>(obs_flags.telemetry_ms));
  }

  // Index setup: build the IUR-tree and freeze it (the builder is dropped
  // once frozen), or load a previously saved frozen snapshot and skip the
  // build entirely.
  const bool load_index = flags.Has("load-index");
  const bool save_index = flags.Has("save-index");
  // Opt-in validation of the index that will serve the query: a built tree
  // gets IurTree::CheckInvariants, and both paths then get
  // FrozenTree::CheckInvariants (what each covers: the --check-invariants
  // note in the header). Exits non-zero with the precise violation so
  // scripted runs can gate on it.
  const bool check_invariants = flags.Has("check-invariants");
  Status invariants = Status::Ok();
  std::optional<frozen::FrozenTree> frozen;
  if (load_index) {
    Result<frozen::FrozenTree> loaded =
        frozen::FrozenTree::Load(flags.Get("load-index", ""));
    const Status fits = loaded.ok()
                            ? loaded.value().CheckMatchesDataset(dataset)
                            : loaded.status();
    if (!fits.ok()) {
      std::fprintf(stderr, "--load-index: %s\n", fits.ToString().c_str());
      return 1;
    }
    frozen.emplace(std::move(loaded.value()));
  } else {
    const IurTree tree = IurTree::BuildFromDataset(dataset, {});
    if (check_invariants) {
      invariants = tree.CheckInvariants(
          [&dataset](uint32_t oid) -> const TermVector* {
            return oid < dataset.size() ? &dataset.object(oid).doc : nullptr;
          });
    }
    frozen.emplace(frozen::FrozenTree::Freeze(tree));
  }
  if (check_invariants) {
    if (invariants.ok()) invariants = frozen->CheckInvariants();
    if (!invariants.ok()) {
      std::fprintf(stderr, "--check-invariants: %s\n",
                   invariants.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "--check-invariants: index ok\n");
  }
  if (save_index) {
    const std::string path = flags.Get("save-index", "");
    const Status s = frozen->Save(path);
    if (!s.ok()) {
      std::fprintf(stderr, "--save-index: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "frozen index (%u nodes, %u entries, %llu index bytes) "
                 "written to %s\n",
                 frozen->num_nodes(), frozen->num_entries(),
                 static_cast<unsigned long long>(frozen->IndexBytes()),
                 path.c_str());
    if (!flags.Has("id") && !flags.Has("ids") && !flags.Has("keywords")) {
      return 0;  // save-only invocation
    }
  }

  // Every query — one or many — runs through the batch runner.
  RstknnOptions options;
  options.algorithm = ParseAlgorithm(flags);
  obs::QueryTrace trace(obs::names::kTraceRstknn);
  if (obs_flags.tracing()) options.trace = &trace;
  obs::PhaseProfiler profiler;
  if (obs_flags.profile) options.profiler = &profiler;
  obs::ExplainRecorder recorder(obs_flags.explain_log);
  if (obs_flags.explain) options.explain = &recorder;
  obs::HeatmapRecorder heatmap;
  if (!obs_flags.heatmap_out.empty()) options.heatmap = &heatmap;

  exec::ThreadPool thread_pool(threads);
  exec::BatchRunner runner(&*frozen, &dataset, &scorer, &thread_pool);
  obs::TraceEventWriter trace_events(/*capacity=*/1 << 16,
                                     obs_flags.trace_sample);
  if (!obs_flags.trace_out.empty()) runner.set_trace_events(&trace_events);
  obs::WorkloadRecorder journal;
  if (!obs_flags.journal_out.empty()) {
    const Status s = journal.Open(
        obs_flags.journal_out,
        MakeJournalHeader(flags, obs_flags, dataset,
                          thread_pool.num_threads()));
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
      return 1;
    }
    runner.set_journal(&journal);
  }
  exec::BatchStats batch_stats;
  const std::vector<RstknnResult> results =
      runner.RunRstknn(queries, options, &batch_stats);

  // --ids prints "<query_id>\t<answer_id>" rows; a single query prints its
  // answer ids alone.
  for (size_t i = 0; i < results.size(); ++i) {
    for (ObjectId id : results[i].answers) {
      if (batch_output) {
        std::printf("%u\t%u\n", ids[i], id);
      } else {
        std::printf("%u\n", id);
      }
    }
  }
  double busy_ms = 0.0;
  for (double ms : batch_stats.worker_busy_ms) busy_ms += ms;
  if (obs_flags.profile) {
    std::fprintf(stderr, "per-phase attribution (of %.2f ms busy):\n%s",
                 busy_ms, profiler.ToString().c_str());
  }
  if (obs_flags.explain) {
    std::fprintf(stderr, "%s", recorder.ToString().c_str());
    const Status reconciled = recorder.CheckReconciles(
        batch_stats.total.expansions, batch_stats.total.pruned_entries,
        batch_stats.total.reported_entries);
    if (!reconciled.ok()) {
      std::fprintf(stderr, "WARNING: %s\n", reconciled.ToString().c_str());
    }
  }
  std::fprintf(stderr,
               "%llu reverse neighbors across %zu queries in %.2f ms wall "
               "(%zu threads, %.2f ms busy, %llu entries, %llu pruned, "
               "%llu I/Os)\n",
               static_cast<unsigned long long>(batch_stats.answers),
               queries.size(), batch_stats.wall_ms, thread_pool.num_threads(),
               busy_ms,
               static_cast<unsigned long long>(
                   batch_stats.total.entries_created),
               static_cast<unsigned long long>(
                   batch_stats.total.pruned_entries),
               static_cast<unsigned long long>(
                   batch_stats.total.io.TotalIos()));
  if (!obs_flags.journal_out.empty()) {
    const int rc = FinishJournal(&journal, obs_flags.journal_out);
    if (rc != 0) return rc;
  }
  if (!obs_flags.heatmap_out.empty()) {
    const int rc =
        EmitHeatmap(obs_flags.heatmap_out, heatmap, batch_stats.total);
    if (rc != 0) return rc;
  }
  // Stop before the artifact snapshot so the runtime.* gauges carry a final
  // post-run sample.
  sampler.Stop();
  return EmitObsArtifacts(obs_flags, "rstknn", &trace,
                          obs_flags.explain ? &recorder : nullptr,
                          obs_flags.profile ? &profiler : nullptr,
                          &trace_events);
}

int CmdMaxBrst(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  auto users = LoadUsersIds(flags.Get("users", "users.csv"));
  if (!users.ok()) {
    std::fprintf(stderr, "%s\n", users.status().ToString().c_str());
    return 1;
  }
  const IurTree tree = IurTree::BuildFromDataset(dataset, {});
  TextSimilarity sim(TextMeasure::kSum, &dataset.corpus_max());
  StScorer scorer(&sim, {flags.Alpha(), dataset.max_dist()});

  MaxBrstQuery query;
  std::optional<std::vector<Point>> locations =
      ParseLocations(flags.Get("locations", ""));
  if (!locations.has_value()) return 2;
  query.locations = std::move(*locations);
  std::optional<std::vector<TermId>> keywords =
      ParseTerms(flags.Get("keywords", ""), "--keywords");
  if (!keywords.has_value()) return 2;
  query.keywords = std::move(*keywords);
  query.ws = flags.Uint("ws", 2);
  query.k = flags.Uint("k", 10);
  if (query.locations.empty() || query.keywords.empty()) {
    std::fprintf(stderr, "need --locations \"x:y;x:y\" and --keywords\n");
    return 2;
  }

  const KeywordSelect method =
      flags.Enum("method", "approx", {"approx", "exact"}) == "exact"
          ? KeywordSelect::kExact
          : KeywordSelect::kApprox;

  const ObsFlags obs_flags(flags);
  obs::QueryTrace trace(obs::names::kTraceMaxbrst);
  obs::QueryTrace* trace_ptr = obs_flags.tracing() ? &trace : nullptr;

  JointTopKProcessor proc(&tree, &dataset, &scorer);
  Stopwatch timer;
  if (trace_ptr != nullptr) trace_ptr->Enter(obs::names::kSpanJointTopk);
  const JointTopKResult joint = proc.Process(users.value(), query.k);
  if (trace_ptr != nullptr) trace_ptr->Exit();
  const double topk_ms = timer.ElapsedMillis();

  MaxBrstSolver solver(&dataset, &scorer);
  timer.Restart();
  const MaxBrstResult best =
      solver.Solve(users.value(), joint.rsk, query, method, trace_ptr);
  const double sel_ms = timer.ElapsedMillis();

  if (best.location_index == SIZE_MAX) {
    std::printf("no placement covers any user\n");
  } else {
    const Point loc = query.locations[best.location_index];
    std::printf("location: %.6f %.6f\nkeywords:", loc.x, loc.y);
    for (TermId w : best.keywords) std::printf(" %u", w);
    std::printf("\ncovered users (%zu):", best.coverage());
    for (uint32_t u : best.covered_users) std::printf(" %u", u);
    std::printf("\n");
  }
  std::fprintf(stderr, "joint top-k %.2f ms (%llu I/Os), selection %.2f ms\n",
               topk_ms,
               static_cast<unsigned long long>(joint.io.TotalIos()), sel_ms);
  return EmitObsArtifacts(obs_flags, "maxbrst", &trace);
}

int Usage() {
  std::fprintf(stderr,
               "usage: rstknn_cli <gen|genusers|stats|topk|rstknn|maxbrst> "
               "[--flag value ...]\n(see the header of tools/rstknn_cli.cc)\n");
  return 2;
}

/// A subcommand and the flags it accepts (the header lists them).
struct Command {
  std::string_view name;
  int (*run)(const Flags&);
  std::vector<std::string_view> flags;
};

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const std::vector<Command> commands = {
      {"gen", CmdGen, {"kind", "objects", "seed", "weighting", "out"}},
      {"genusers",
       CmdGenUsers,
       {"data", "weighting", "num", "ul", "uw", "area", "seed", "out"}},
      {"stats", CmdStats, {"data", "weighting"}},
      {"topk",
       CmdTopK,
       {"data", "weighting", "measure", "alpha", "x", "y", "keywords", "k",
        "trace", "metrics-out"}},
      {"rstknn",
       CmdRstknn,
       {"data", "weighting", "measure", "alpha", "algo", "id", "ids", "x",
        "y", "keywords", "k", "threads",
        "save-index", "load-index", "check-invariants", "trace",
        "metrics-out", "explain", "explain-log", "slow-log-ms",
        "profile", "trace-out", "trace-sample",
        "telemetry-ms", "journal-out", "journal-sample", "heatmap-out"}},
      {"maxbrst",
       CmdMaxBrst,
       {"data", "weighting", "alpha", "users", "locations", "keywords", "ws",
        "k", "method", "trace", "metrics-out"}},
  };
  for (const Command& command : commands) {
    if (cmd != command.name) continue;
    const Flags flags(argc, argv);
    const std::string unknown = flags.FirstUnknown(command.flags);
    if (!unknown.empty()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", cmd.c_str(),
                   unknown.c_str());
      return 2;
    }
    return command.run(flags);
  }
  return Usage();
}

}  // namespace
}  // namespace rst

int main(int argc, char** argv) { return rst::Main(argc, argv); }
