// The three benchmark workloads. Each one generates its inputs from the
// seed, sets up its index several times (the median is setup_s), then runs
// a closed loop of operations from one caller and checks every answer
// against an exact oracle after the measured loop.
//
// Untraced run (--trace 0): the loop runs for --seconds; the end-to-end
// metrics come from raw per-operation samples.
// Traced run (--trace 1): a fixed number of operations (a function of
// --seconds only, so per-operation counts repeat exactly for a seed) each
// run twice, untraced and traced, in alternating order; the per-layer
// metrics come from the traced runs and the difference between the two
// totals is the tracing overhead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench.h"
#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"
#include "rst/maxbrst/joint_topk.h"
#include "rst/maxbrst/maxbrst.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/runtime.h"
#include "rst/rstknn/rstknn.h"

namespace perfbench {

using rst::Dataset;
using rst::IurTree;
using rst::ObjectId;
using rst::frozen::FrozenTree;

namespace {

/// Worker threads of text_batch's pool and of the oracle (a 4-core host).
constexpr size_t kThreads = 4;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// q-quantile (0 < q <= 1) of raw samples by the nearest-rank rule.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The benchmark's own trace: one span around each call it makes into a
/// layer, kept in memory and written out when the run ends. A span's self
/// time is its duration minus its children's; children are the spans opened
/// while it was open, on the one thread that records them.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  ///< since the log was created
    double end_ms = 0.0;
    int parent = -1;        ///< index into spans_, -1 for a root
    uint64_t op = 0;        ///< operation id; setup spans use 0
    double child_ms = 0.0;  ///< total duration of direct children
  };

  int Begin(const std::string& name, uint64_t op) {
    Span span;
    span.name = name;
    span.start_ms = MsBetween(epoch_, Clock::now());
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ms = MsBetween(epoch_, Clock::now());
    open_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ms +=
          span.end_ms - span.start_ms;
    }
  }

  /// Self time summed per span name.
  std::map<std::string, double> SelfMsByName() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += (s.end_ms - s.start_ms) - s.child_ms;
    }
    return out;
  }

  double SelfMsTotal() const {
    double total = 0.0;
    for (const auto& [name, ms] : SelfMsByName()) total += ms;
    return total;
  }

  /// Duration summed over the spans called `name`.
  double TotalMs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end_ms - s.start_ms;
    }
    return total;
  }

  /// One line per span: index, parent, operation id, name, start, end (ms).
  void WriteTo(std::FILE* out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "span %zu parent %d op %llu %s %.6f %.6f\n", i,
                   s.parent, static_cast<unsigned long long>(s.op),
                   s.name.c_str(), s.start_ms, s.end_ms);
    }
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op)
      : log_(log), id_(log ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Independent sub-seeds per input stream, so changing one stream (e.g. the
/// query sample) never shifts another (the dataset).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  rst::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next();
}

/// Performs operation `i` of a workload, traced when `spans` is non-null,
/// and records its outcome itself.
using OpFn = std::function<void(size_t i, SpanLog* spans)>;

struct TimedRun {
  std::vector<double> latency_ms;
  double wall_ms = 0;
};

/// Closed loop from one caller: operations 0, 1, ... until `seconds` pass.
TimedRun RunTimed(double seconds, const OpFn& op) {
  TimedRun run;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < deadline; ++i) {
    const Clock::time_point t0 = Clock::now();
    op(i, nullptr);
    run.latency_ms.push_back(MsBetween(t0, Clock::now()));
  }
  run.wall_ms = MsBetween(start, Clock::now());
  return run;
}

struct TracedRun {
  double plain_ms = 0;   ///< total time of the untraced runs
  double traced_ms = 0;  ///< total time of the traced runs
};

/// Operations 0..n-1, each untraced and traced back to back; the order
/// alternates so that warm caches and machine drift favor neither side.
TracedRun RunTraced(size_t n, SpanLog* spans, const OpFn& op) {
  TracedRun run;
  for (size_t i = 0; i < n; ++i) {
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (i % 2 == 1);
      const Clock::time_point t0 = Clock::now();
      op(i, traced ? spans : nullptr);
      (traced ? run.traced_ms : run.plain_ms) += MsBetween(t0, Clock::now());
    }
  }
  return run;
}

/// Operation count of a traced run: a function of --seconds only. Each
/// operation runs twice, so `ops_per_second` is about half the workload's
/// untraced rate to keep the run near --seconds.
size_t TracedOps(const RunConfig& config, double ops_per_second,
                 size_t minimum) {
  return std::max(minimum,
                  static_cast<size_t>(config.seconds * ops_per_second / 2.0));
}

/// Runs `count` oracle checks on kThreads workers; returns how many failed.
uint64_t CountFailures(size_t count, const std::function<bool(size_t)>& ok) {
  rst::exec::ThreadPool pool(kThreads);
  std::vector<uint8_t> bad(count, 0);
  pool.ParallelFor(count, 1, [&](size_t i, size_t) { bad[i] = ok(i) ? 0 : 1; });
  uint64_t failed = 0;
  for (uint8_t b : bad) failed += b;
  return failed;
}

/// The index every workload sets up: a pointer IUR-tree, plus its frozen
/// snapshot where the workload searches one.
struct Index {
  std::optional<IurTree> tree;
  std::optional<FrozenTree> frozen;
  double setup_s = 0;    ///< median over repeats of build (+ freeze)
  double build_ms = 0;   ///< median
  double freeze_ms = 0;  ///< median
  double wall_ms = 0;    ///< all repeats
};

/// Builds (and optionally freezes) `reps` times; keeps the last index.
void SetUp(const Dataset& dataset, size_t reps, bool freeze, SpanLog* spans,
           Index* index) {
  std::vector<double> total_s, build_ms, freeze_ms;
  const Clock::time_point start = Clock::now();
  for (size_t rep = 0; rep < reps; ++rep) {
    index->frozen.reset();
    index->tree.reset();
    ScopedSpan setup_span(spans, "setup", 0);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "iurtree.build", 0);
      index->tree.emplace(IurTree::BuildFromDataset(dataset, {}));
    }
    const Clock::time_point t1 = Clock::now();
    if (freeze) {
      ScopedSpan span(spans, "frozen.freeze", 0);
      index->frozen.emplace(FrozenTree::Freeze(*index->tree));
    }
    const Clock::time_point t2 = Clock::now();
    build_ms.push_back(MsBetween(t0, t1));
    freeze_ms.push_back(MsBetween(t1, t2));
    total_s.push_back(MsBetween(t0, t2) / 1e3);
  }
  index->wall_ms = MsBetween(start, Clock::now());
  index->setup_s = Median(total_s);
  index->build_ms = Median(build_ms);
  index->freeze_ms = freeze ? Median(freeze_ms) : 0.0;
}

/// Minimum time one kernel-timing sample must cover.
constexpr double kKernelSampleMs = 5.0;

/// Times `fn(pair)` over the pairs, repeating full passes until one sample
/// covers kKernelSampleMs; returns the median of 5 samples in ns per call.
template <typename Fn>
double TimeKernelNs(size_t num_pairs, Fn fn) {
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed_ms = 0.0;
    do {
      for (size_t i = 0; i < num_pairs; ++i) fn(i);
      calls += num_pairs;
      elapsed_ms = MsBetween(t0, Clock::now());
    } while (elapsed_ms < kKernelSampleMs);
    samples.push_back(elapsed_ms * 1e6 / static_cast<double>(calls));
  }
  return Median(samples);
}

constexpr size_t kKernelPairs = 2048;

/// text.score_ns: StScorer::Score on sampled object pairs.
double MeasureScoreNs(const Dataset& dataset, const rst::StScorer& scorer,
                      uint64_t seed) {
  rst::Rng rng(seed);
  std::vector<std::pair<ObjectId, ObjectId>> pairs(kKernelPairs);
  for (auto& p : pairs) {
    p = {static_cast<ObjectId>(rng.UniformInt(dataset.size())),
         static_cast<ObjectId>(rng.UniformInt(dataset.size()))};
  }
  volatile double sink = 0.0;
  return TimeKernelNs(pairs.size(), [&](size_t i) {
    const rst::StObject& a = dataset.object(pairs[i].first);
    const rst::StObject& b = dataset.object(pairs[i].second);
    sink = sink + scorer.Score(a.loc, a.doc, b.loc, b.doc);
  });
}

void CollectEntries(const IurTree::Node* node,
                    std::vector<const IurTree::Entry*>* out) {
  for (const IurTree::Entry& e : node->entries) {
    out->push_back(&e);
    if (!e.is_object()) CollectEntries(e.child, out);
  }
}

/// text.bound_ns: one MaxScore + MinScore pair — what one
/// rstknn.bound_computations step evaluates — on pairs of tree entries drawn
/// uniformly from all levels (so mostly object entries, as in the probes).
double MeasureBoundNs(const IurTree& tree, const rst::StScorer& scorer,
                      uint64_t seed) {
  std::vector<const IurTree::Entry*> entries;
  if (tree.root() != nullptr) CollectEntries(tree.root(), &entries);
  if (entries.empty()) return 0.0;
  rst::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> pairs(kKernelPairs);
  for (auto& p : pairs) {
    p = {rng.UniformInt(entries.size()), rng.UniformInt(entries.size())};
  }
  volatile double sink = 0.0;
  return TimeKernelNs(pairs.size(), [&](size_t i) {
    const IurTree::Entry& a = *entries[pairs[i].first];
    const IurTree::Entry& b = *entries[pairs[i].second];
    sink = sink + scorer.MaxScore(a.rect, a.summary, b.rect, b.summary) +
           scorer.MinScore(a.rect, a.summary, b.rect, b.summary);
  });
}

/// Per-layer metrics in the order BENCHMARK.json lists them. A layer the
/// workload bypasses keeps its zeros: it did no work.
struct LayerMetrics {
  double build_ms = 0, nodes = 0, height = 0;
  double freeze_ms = 0, frozen_bytes = 0;
  rst::RstknnStats rstknn;  ///< summed over the traced operations
  double rstknn_ops = 0;    ///< operations `rstknn` sums over
  double search_ms = 0;     ///< per operation
  double phase_ms[rst::obs::kNumPhases] = {};  ///< per operation
  double score_ns = 0, bound_ns = 0;
  double busy_frac = 0, imbalance = 0;
  double joint_ms = 0, joint_ios = 0;
  rst::MaxBrstStats maxbrst;  ///< summed over the traced operations
  double maxbrst_ops = 0;
  double solve_ms = 0;
  double trace_overhead_frac = 0;

  void SetIndex(const Index& index, const rst::StScorer& scorer,
                const Dataset& dataset, uint64_t seed) {
    build_ms = index.build_ms;
    nodes = static_cast<double>(index.tree->NodeCount());
    height = static_cast<double>(index.tree->height());
    if (index.frozen) {
      freeze_ms = index.freeze_ms;
      frozen_bytes =
          static_cast<double>(index.frozen->SerializeToString().size());
    }
    score_ns = MeasureScoreNs(dataset, scorer, SubSeed(seed, 3));
    bound_ns = MeasureBoundNs(*index.tree, scorer, SubSeed(seed, 4));
  }

  double PerRstknnOp(uint64_t count) const {
    return rstknn_ops > 0 ? static_cast<double>(count) / rstknn_ops : 0.0;
  }
  double PerMaxbrstOp(uint64_t count) const {
    return maxbrst_ops > 0 ? static_cast<double>(count) / maxbrst_ops : 0.0;
  }
  double PhaseMs(rst::obs::Phase p) const {
    return phase_ms[static_cast<size_t>(p)];
  }

  /// Metrics BENCHMARK.json lists, in its order.
  std::vector<Metric> ToMetrics() const {
    using rst::obs::Phase;
    const rst::RstknnStats& s = rstknn;
    double phases = 0.0;
    for (double ms : phase_ms) phases += ms;
    const double decided =
        s.entries_created == 0
            ? 0.0
            : static_cast<double>(s.pruned_entries + s.reported_entries) /
                  static_cast<double>(s.entries_created);
    const double bounds = PerRstknnOp(s.bound_computations);
    return {
        {"iurtree.build_ms", build_ms, "ms"},
        {"iurtree.nodes", nodes, "count"},
        {"iurtree.height", height, "count"},
        {"frozen.freeze_ms", freeze_ms, "ms"},
        {"frozen.bytes", frozen_bytes, "B"},
        {"rstknn.bound_computations", bounds, "count"},
        {"rstknn.probes", PerRstknnOp(s.probes), "count"},
        {"rstknn.pq_pops", PerRstknnOp(s.pq_pops), "count"},
        {"rstknn.entries_created", PerRstknnOp(s.entries_created), "count"},
        {"rstknn.expansions", PerRstknnOp(s.expansions), "count"},
        {"rstknn.node_reads", PerRstknnOp(s.io.node_reads), "count"},
        {"rstknn.decided_frac", decided, "frac"},
        {"rstknn.search_ms", search_ms, "ms"},
        {"rstknn.phase.descent_ms", PhaseMs(Phase::kDescent), "ms"},
        {"rstknn.phase.bounds_ms", PhaseMs(Phase::kBounds), "ms"},
        {"rstknn.phase.finalize_ms", PhaseMs(Phase::kFinalize), "ms"},
        {"rstknn.unattributed_ms", search_ms - phases, "ms"},
        {"text.score_ns", score_ns, "ns"},
        {"text.bound_ns", bound_ns, "ns"},
        {"text.bound_share",
         search_ms > 0 ? bounds * bound_ns * 1e-6 / search_ms : 0.0, "frac"},
        {"exec.busy_frac", busy_frac, "frac"},
        {"exec.imbalance", imbalance, "ratio"},
        {"topk.joint_ms", joint_ms, "ms"},
        {"topk.joint_ios", joint_ios, "count"},
        {"maxbrst.solve_ms", solve_ms, "ms"},
        {"maxbrst.user_evaluations", PerMaxbrstOp(maxbrst.user_evaluations),
         "count"},
        {"obs.trace_overhead_frac", trace_overhead_frac, "frac"},
    };
  }

  /// Named per-layer numbers that are zero by construction in every
  /// workload, so BENCHMARK.json does not carry them (README.md says why).
  std::vector<Metric> ToNotes() const {
    using rst::obs::Phase;
    return {
        {"rstknn.phase.merge_ms", PhaseMs(Phase::kMerge), "ms"},
        {"rstknn.phase.io_ms", PhaseMs(Phase::kIo), "ms"},
        {"maxbrst.combinations_evaluated",
         PerMaxbrstOp(maxbrst.combinations_evaluated), "count"},
        {"maxbrst.locations_pruned", PerMaxbrstOp(maxbrst.locations_pruned),
         "count"},
    };
  }
};

/// Untraced result: the end-to-end metric block shared by every workload.
void SetEndToEnd(const Index& index, const TimedRun& run, double completed,
                 double index_bytes, double objects, RunResult* result) {
  result->metrics = {
      {"setup_s", index.setup_s, "s"},
      {"query_p50_ms", Percentile(run.latency_ms, 0.5), "ms"},
      {"query_p90_ms", Percentile(run.latency_ms, 0.9), "ms"},
      {"throughput_qps", completed * 1e3 / run.wall_ms, "1/s"},
      {"peak_rss_mb",
       static_cast<double>(rst::obs::ReadRuntimeSample().max_rss_bytes) /
           (1024.0 * 1024.0),
       "MB"},
      {"index_bytes_per_object", index_bytes / objects, "B"},
  };
  result->notes.push_back(
      {"latency_samples", static_cast<double>(run.latency_ms.size()), "count"});
}

/// Traced result: the per-layer metrics plus the bookkeeping the smoke test
/// checks — span self times must sum to at most the wall time they were
/// recorded in (the setup repeats plus the traced operations).
void SetLayers(LayerMetrics* layers, const Index& index, const TracedRun& run,
               const SpanLog& spans, RunResult* result) {
  layers->trace_overhead_frac = (run.traced_ms - run.plain_ms) / run.plain_ms;
  result->metrics = layers->ToMetrics();
  result->notes = layers->ToNotes();
  result->notes.push_back(
      {"trace.wall_ms", index.wall_ms + run.traced_ms, "ms"});
  result->notes.push_back({"trace.self_sum_ms", spans.SelfMsTotal(), "ms"});
  for (const auto& [name, ms] : spans.SelfMsByName()) {
    result->notes.push_back({"trace.self." + name + "_ms", ms, "ms"});
  }
  spans.WriteTo(stderr);
}

void SetOutcome(uint64_t attempted, uint64_t failed, RunResult* result) {
  result->attempted = attempted;
  result->failed = failed;
  result->notes.push_back(
      {"failed_frac",
       attempted == 0 ? 0.0
                      : static_cast<double>(failed) /
                            static_cast<double>(attempted),
       "frac"});
}

/// RSTkNN answers by query, of the untraced [0] and traced [1] runs.
using Answers = std::vector<std::vector<ObjectId>>;

/// Checks RSTkNN answers against BruteForceRstknn (and traced against
/// untraced answers, when there are traced ones).
template <typename QueryOf>
void CheckRstknn(const Answers (&answers)[2], const Dataset& dataset,
                 const rst::StScorer& scorer, QueryOf query_of,
                 RunResult* result) {
  const Answers& got = answers[0];
  const bool traced = !answers[1].empty();
  const uint64_t failed = CountFailures(got.size(), [&](size_t i) {
    if (traced && answers[1][i] != got[i]) return false;
    return rst::BruteForceRstknn(dataset, scorer, query_of(i)) == got[i];
  });
  SetOutcome(got.size(), failed, result);
}

}  // namespace

// ---------------------------------------------------------------------------
// spatial_serial: GeoNames-like, short documents, α = 0.9, one caller
// issuing RstknnSearcher::Search over a frozen tree with a reused scratch.

RunResult RunSpatialSerial(const RunConfig& config) {
  const bool tiny = config.size == Size::kTiny;
  rst::GeoNamesLikeConfig gen;
  gen.num_objects = tiny ? 1500 : 10000;
  gen.terms_per_object = 5.0;
  // More (smaller) hotspots than the generator's default 6: with 6, where a
  // seed happens to put them moves the run's cost by ~30%, which would
  // drown the changes the benchmark exists to see.
  gen.num_hotspots = 24;
  gen.seed = SubSeed(config.seed, 1);
  const Dataset dataset =
      rst::GenGeoNamesLike(gen, {rst::Weighting::kTfIdf, 0.1});
  const rst::TextSimilarity sim(rst::TextMeasure::kExtendedJaccard);
  const rst::StScorer scorer(&sim, {0.9, dataset.max_dist()});
  const std::vector<ObjectId> ids = rst::SampleQueryObjects(
      dataset, dataset.size(), SubSeed(config.seed, 2));
  auto query_of = [&](size_t i) {
    const rst::StObject& o = dataset.object(ids[i % ids.size()]);
    return rst::RstknnQuery{o.loc, &o.doc, /*k=*/10, o.id};
  };

  SpanLog spans;
  Index index;
  SetUp(dataset, tiny ? 2 : 5, /*freeze=*/true,
        config.trace ? &spans : nullptr, &index);

  const rst::RstknnSearcher searcher(&*index.frozen, &dataset, &scorer);
  rst::ProbeScratch scratch;
  rst::obs::PhaseProfiler profiler;
  rst::RstknnOptions options;
  options.scratch = &scratch;
  rst::RstknnOptions traced_options = options;
  traced_options.profiler = &profiler;

  Answers answers[2];
  LayerMetrics layers;
  const OpFn op = [&](size_t i, SpanLog* s) {
    ScopedSpan op_span(s, "op", i + 1);
    rst::RstknnResult r;
    {
      ScopedSpan span(s, "rstknn.search", i + 1);
      r = searcher.Search(query_of(i), s ? traced_options : options);
    }
    if (s != nullptr) {
      layers.rstknn.Merge(r.stats);
      for (size_t p = 0; p < rst::obs::kNumPhases; ++p) {
        layers.phase_ms[p] +=
            profiler.total_ms(static_cast<rst::obs::Phase>(p));
      }
    }
    answers[s != nullptr].push_back(std::move(r.answers));
  };

  RunResult result;
  if (!config.trace) {
    const TimedRun run = RunTimed(config.seconds, op);
    SetEndToEnd(index, run, static_cast<double>(run.latency_ms.size()),
                static_cast<double>(index.frozen->IndexBytes()),
                static_cast<double>(dataset.size()), &result);
  } else {
    const size_t n = TracedOps(config, 20.0, 4);
    const TracedRun run = RunTraced(n, &spans, op);
    layers.SetIndex(index, scorer, dataset, config.seed);
    layers.rstknn_ops = static_cast<double>(n);
    layers.search_ms = spans.TotalMs("rstknn.search") / layers.rstknn_ops;
    for (double& ms : layers.phase_ms) ms /= layers.rstknn_ops;
    SetLayers(&layers, index, run, spans, &result);
  }
  CheckRstknn(answers, dataset, scorer, query_of, &result);
  return result;
}

// ---------------------------------------------------------------------------
// text_batch: Yelp-like long documents, α = 0.5, batches of queries through
// exec::BatchRunner::RunRstknn on a ThreadPool over a frozen tree.

RunResult RunTextBatch(const RunConfig& config) {
  const bool tiny = config.size == Size::kTiny;
  rst::YelpLikeConfig gen;
  gen.num_objects = tiny ? 200 : 700;
  // 32 hotspots instead of the generator's 8, for the same reason as in
  // spatial_serial: with 8, the seed alone moved throughput by ~20%.
  gen.num_hotspots = 32;
  gen.seed = SubSeed(config.seed, 1);
  const Dataset dataset = rst::GenYelpLike(gen, {rst::Weighting::kTfIdf, 0.1});
  const rst::TextSimilarity sim(rst::TextMeasure::kExtendedJaccard);
  const rst::StScorer scorer(&sim, {0.5, dataset.max_dist()});
  const size_t batch_size = tiny ? 8 : 16;
  const std::vector<ObjectId> ids = rst::SampleQueryObjects(
      dataset, dataset.size(), SubSeed(config.seed, 2));
  auto query_of = [&](size_t i) {
    const rst::StObject& o = dataset.object(ids[i % ids.size()]);
    return rst::RstknnQuery{o.loc, &o.doc, /*k=*/10, o.id};
  };

  SpanLog spans;
  Index index;
  SetUp(dataset, tiny ? 2 : 5, /*freeze=*/true,
        config.trace ? &spans : nullptr, &index);

  rst::exec::ThreadPool pool(kThreads);
  rst::exec::BatchRunner runner(&*index.frozen, &dataset, &scorer, &pool);
  const rst::RstknnOptions options;

  Answers answers[2];
  std::vector<double> busy_ms(pool.num_threads(), 0.0);
  double batch_wall_ms = 0.0;
  LayerMetrics layers;
  const OpFn op = [&](size_t b, SpanLog* s) {
    std::vector<rst::RstknnQuery> queries;
    for (size_t j = 0; j < batch_size; ++j) {
      queries.push_back(query_of(b * batch_size + j));
    }
    ScopedSpan op_span(s, "op", b + 1);
    runner.set_profiling(s != nullptr);
    rst::exec::BatchStats batch;
    std::vector<rst::RstknnResult> results;
    {
      ScopedSpan span(s, "exec.batch", b + 1);
      results = runner.RunRstknn(queries, options, &batch);
    }
    if (s != nullptr) {
      layers.rstknn.Merge(batch.total);
      batch_wall_ms += batch.wall_ms;
      for (size_t w = 0; w < batch.worker_busy_ms.size(); ++w) {
        busy_ms[w] += batch.worker_busy_ms[w];
      }
    }
    for (rst::RstknnResult& r : results) {
      answers[s != nullptr].push_back(std::move(r.answers));
    }
  };

  RunResult result;
  if (!config.trace) {
    // One operation is one batch; throughput counts queries.
    const TimedRun run = RunTimed(config.seconds, op);
    SetEndToEnd(index, run, static_cast<double>(answers[0].size()),
                static_cast<double>(index.frozen->IndexBytes()),
                static_cast<double>(dataset.size()), &result);
  } else {
    // Phase times come from the per-worker profilers' registry histograms,
    // which only the traced batches feed.
    const char* const kPhaseNames[rst::obs::kNumPhases] = {
        rst::obs::names::kPhaseDescentMs, rst::obs::names::kPhaseBoundsMs,
        rst::obs::names::kPhaseMergeMs, rst::obs::names::kPhaseIoMs,
        rst::obs::names::kPhaseFinalizeMs};
    auto phase_sums = [&kPhaseNames]() {
      const rst::obs::MetricsSnapshot snap =
          rst::obs::MetricRegistry::Global().Snapshot();
      std::vector<double> sums;
      for (const char* name : kPhaseNames) {
        const auto it = snap.histograms.find(name);
        sums.push_back(it == snap.histograms.end() ? 0.0 : it->second.sum);
      }
      return sums;
    };
    const std::vector<double> before = phase_sums();
    const TracedRun run = RunTraced(TracedOps(config, 1.5, 2), &spans, op);
    const std::vector<double> after = phase_sums();

    layers.SetIndex(index, scorer, dataset, config.seed);
    layers.rstknn_ops = static_cast<double>(answers[1].size());
    double busy_total = 0.0, busy_max = 0.0;
    for (double b : busy_ms) {
      busy_total += b;
      busy_max = std::max(busy_max, b);
    }
    // Per-query time inside the workers: the batch runs queries in
    // parallel, so the batch span cannot be split by query.
    layers.search_ms = busy_total / layers.rstknn_ops;
    for (size_t p = 0; p < rst::obs::kNumPhases; ++p) {
      layers.phase_ms[p] = (after[p] - before[p]) / layers.rstknn_ops;
    }
    const double workers = static_cast<double>(busy_ms.size());
    layers.busy_frac = busy_total / (workers * batch_wall_ms);
    layers.imbalance = busy_total > 0 ? busy_max * workers / busy_total : 0.0;
    SetLayers(&layers, index, run, spans, &result);
  }
  CheckRstknn(answers, dataset, scorer, query_of, &result);
  return result;
}

// ---------------------------------------------------------------------------
// maxbrst_sites: Flickr-like objects under LM weighting and the kSum
// measure; each operation is JointTopKProcessor::Process for a fresh user
// group followed by MaxBrstSolver::Solve(kApprox).

RunResult RunMaxbrstSites(const RunConfig& config) {
  const bool tiny = config.size == Size::kTiny;
  rst::FlickrLikeConfig gen;
  gen.num_objects = tiny ? 5000 : 50000;
  gen.seed = SubSeed(config.seed, 1);
  const Dataset dataset =
      rst::GenFlickrLike(gen, {rst::Weighting::kLanguageModel, 0.1});
  const rst::TextSimilarity sim(rst::TextMeasure::kSum, &dataset.corpus_max());
  const rst::StScorer scorer(&sim, {0.5, dataset.max_dist()});
  const size_t k = 10;

  // Input generation: user groups with their MaxBRSTkNN queries, cycled if
  // a run needs more operations than there are groups.
  struct Group {
    std::vector<rst::StUser> users;
    rst::MaxBrstQuery query;
  };
  std::vector<Group> groups(tiny ? 16 : 256);
  for (size_t g = 0; g < groups.size(); ++g) {
    rst::UserGenConfig ucfg;
    ucfg.num_users = tiny ? 30 : 100;
    ucfg.keywords_per_user = 3;
    ucfg.num_unique_keywords = 20;
    ucfg.area_extent = 5.0;
    ucfg.seed = SubSeed(config.seed, 100 + g);
    rst::GeneratedUsers users = rst::GenUsers(dataset, ucfg);
    groups[g].query.locations = rst::GenCandidateLocations(
        users.area, tiny ? 8 : 20, SubSeed(config.seed, 10000 + g));
    groups[g].query.keywords = std::move(users.candidate_keywords);
    groups[g].query.ws = 2;
    groups[g].query.k = k;
    groups[g].users = std::move(users.users);
  }

  SpanLog spans;
  Index index;
  SetUp(dataset, tiny ? 2 : 3, /*freeze=*/false,
        config.trace ? &spans : nullptr, &index);

  const rst::JointTopKProcessor processor(&*index.tree, &dataset, &scorer);
  const rst::MaxBrstSolver solver(&dataset, &scorer);

  struct Outcome {
    std::vector<double> rsk;
    rst::MaxBrstResult placement;
  };
  std::vector<Outcome> outcomes[2];
  uint64_t joint_ios = 0;
  LayerMetrics layers;
  const OpFn op = [&](size_t i, SpanLog* s) {
    const Group& group = groups[i % groups.size()];
    ScopedSpan op_span(s, "op", i + 1);
    Outcome outcome;
    {
      ScopedSpan span(s, "topk.process", i + 1);
      rst::JointTopKResult joint = processor.Process(group.users, k);
      if (s != nullptr) joint_ios += joint.io.TotalIos();
      outcome.rsk = std::move(joint.rsk);
    }
    {
      ScopedSpan span(s, "maxbrst.solve", i + 1);
      outcome.placement = solver.Solve(group.users, outcome.rsk, group.query,
                                       rst::KeywordSelect::kApprox);
    }
    if (s != nullptr) {
      const rst::MaxBrstStats& st = outcome.placement.stats;
      layers.maxbrst.user_evaluations += st.user_evaluations;
      layers.maxbrst.combinations_evaluated += st.combinations_evaluated;
      layers.maxbrst.locations_pruned += st.locations_pruned;
    }
    outcomes[s != nullptr].push_back(std::move(outcome));
  };

  RunResult result;
  if (!config.trace) {
    const TimedRun run = RunTimed(config.seconds, op);
    SetEndToEnd(index, run, static_cast<double>(run.latency_ms.size()),
                static_cast<double>(index.tree->IndexBytes()),
                static_cast<double>(dataset.size()), &result);
  } else {
    const size_t n = TracedOps(config, 9.0, 4);
    const TracedRun run = RunTraced(n, &spans, op);
    layers.SetIndex(index, scorer, dataset, config.seed);
    const double ops = static_cast<double>(n);
    layers.maxbrst_ops = ops;
    layers.joint_ms = spans.TotalMs("topk.process") / ops;
    layers.joint_ios = static_cast<double>(joint_ios) / ops;
    layers.solve_ms = spans.TotalMs("maxbrst.solve") / ops;
    SetLayers(&layers, index, run, spans, &result);
  }

  // Oracle: RS_k from independent per-user top-k searches; the exact
  // solver's coverage equals exhaustive enumeration; the greedy placement
  // reports exactly the users it covers, and never more than the optimum.
  auto verify = [&](size_t i) {
    const Outcome& got = outcomes[0][i];
    if (config.trace &&
        (outcomes[1][i].rsk != got.rsk ||
         outcomes[1][i].placement.covered_users !=
             got.placement.covered_users)) {
      return false;
    }
    const Group& group = groups[i % groups.size()];
    if (processor.BaselinePerUser(group.users, k).rsk != got.rsk) return false;
    const rst::MaxBrstResult exact = solver.Solve(
        group.users, got.rsk, group.query, rst::KeywordSelect::kExact);
    const rst::MaxBrstResult brute = rst::BruteForceMaxBrst(
        group.users, got.rsk, dataset, scorer, group.query);
    if (exact.coverage() != brute.coverage()) return false;
    const rst::MaxBrstResult& approx = got.placement;
    if (approx.location_index >= group.query.locations.size()) {
      return approx.coverage() == 0;
    }
    if (approx.coverage() > exact.coverage()) return false;
    std::vector<uint32_t> all;
    for (const rst::StUser& u : group.users) all.push_back(u.id);
    const rst::PlacementContext ctx =
        rst::PlacementContext::Make(dataset, group.query);
    return rst::EvaluatePlacement(
               group.users, all, got.rsk, scorer,
               group.query.locations[approx.location_index],
               ctx.VecWith(approx.keywords), nullptr) == approx.covered_users;
  };
  SetOutcome(outcomes[0].size(),
             CountFailures(outcomes[0].size(), verify),
             &result);
  return result;
}

}  // namespace perfbench
