// Tests for the time-domain profiling layer (DESIGN.md §12): PhaseProfiler
// self-time attribution, the Chrome trace-event exporter (round-tripped
// through the obs JSON parser), the runtime telemetry sampler, and the
// BatchRunner profiling/trace-event integration.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/runtime.h"
#include "rst/obs/trace.h"
#include "rst/obs/trace_event.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

// Span/arg names local to this binary (the unit under test is the exporter
// machinery, not the query engine's naming). Constants keep the call sites
// literal-free (rst_lint metric-name-literal).
constexpr char kOuter[] = "outer";
constexpr char kInner[] = "inner";
constexpr char kLeaf[] = "leaf";
constexpr char kEvent[] = "event";
constexpr char kCatTest[] = "test";
constexpr char kArgOne[] = "one";

// Burns a little real wall time so phase totals are strictly positive
// without sleeping (sleep granularity would dominate the assertions).
void Spin(double ms) {
  const Stopwatch timer;
  while (timer.ElapsedMillis() < ms) {
  }
}

// --- PhaseProfiler --------------------------------------------------------

TEST(PhaseProfilerTest, AttributesSelfTimeExclusively) {
  obs::PhaseProfiler profiler;
  const Stopwatch wall;
  profiler.Enter(obs::Phase::kDescent);
  Spin(1.0);
  profiler.Enter(obs::Phase::kIo);  // pauses descent
  Spin(1.0);
  profiler.Exit();
  Spin(1.0);
  profiler.Exit();
  const double wall_ms = wall.ElapsedMillis();

  EXPECT_GT(profiler.total_ms(obs::Phase::kDescent), 0.0);
  EXPECT_GT(profiler.total_ms(obs::Phase::kIo), 0.0);
  EXPECT_EQ(profiler.calls(obs::Phase::kDescent), 1u);
  EXPECT_EQ(profiler.calls(obs::Phase::kIo), 1u);
  EXPECT_EQ(profiler.calls(obs::Phase::kMerge), 0u);
  // Self-time accounting: the nested kIo slice is NOT also credited to
  // kDescent, so the phase totals sum to at most the wall time.
  EXPECT_LE(profiler.SumMs(), wall_ms * 1.001 + 0.001);
  // And nothing was lost either: all three spun slices were inside phases.
  EXPECT_GE(profiler.SumMs(), 2.9);
}

TEST(PhaseProfilerTest, ReentryAccumulatesCallsAndTime) {
  obs::PhaseProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    profiler.Enter(obs::Phase::kBounds);
    Spin(0.2);
    profiler.Exit();
  }
  EXPECT_EQ(profiler.calls(obs::Phase::kBounds), 3u);
  EXPECT_GE(profiler.total_ms(obs::Phase::kBounds), 0.5);
}

TEST(PhaseProfilerTest, ResetZeroesEverything) {
  obs::PhaseProfiler profiler;
  profiler.Enter(obs::Phase::kFinalize);
  Spin(0.2);
  profiler.Exit();
  ASSERT_GT(profiler.SumMs(), 0.0);
  profiler.Reset();
  EXPECT_EQ(profiler.SumMs(), 0.0);
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    EXPECT_EQ(profiler.calls(static_cast<obs::Phase>(p)), 0u);
  }
}

TEST(PhaseProfilerTest, UnbalancedAndOverflowedStacksAreSafe) {
  obs::PhaseProfiler profiler;
  profiler.Exit();  // exit without enter: no-op
  EXPECT_EQ(profiler.SumMs(), 0.0);

  // Nest far beyond the fixed stack; the overflow is counted, Exit stays
  // balanced, and nothing crashes or double-frees timing slices.
  for (int i = 0; i < 20; ++i) profiler.Enter(obs::Phase::kDescent);
  for (int i = 0; i < 20; ++i) profiler.Exit();
  EXPECT_EQ(profiler.calls(obs::Phase::kDescent), 8u);  // kMaxDepth timed
  profiler.Exit();  // still balanced after drain
}

TEST(PhaseProfilerTest, NullProfilerTimerIsANoop) {
  obs::PhaseTimer timer(nullptr, obs::Phase::kIo);  // must not crash
}

TEST(PhaseProfilerTest, PublishRecordsHistogramsAndCounter) {
  obs::PhaseProfiler profiler;
  profiler.Enter(obs::Phase::kDescent);
  Spin(0.2);
  profiler.Exit();

  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  profiler.Publish();
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);

  auto counter = delta.counters.find(obs::names::kPhaseProfiledQueries);
  ASSERT_NE(counter, delta.counters.end());
  EXPECT_EQ(counter->second, 1u);
  auto hist = delta.histograms.find(obs::names::kPhaseDescentMs);
  ASSERT_NE(hist, delta.histograms.end());
  EXPECT_EQ(hist->second.count, 1u);
  // Phases with no calls publish no sample.
  auto merge = delta.histograms.find(obs::names::kPhaseMergeMs);
  if (merge != delta.histograms.end()) {
    EXPECT_EQ(merge->second.count, 0u);
  }
}

// --- Real-search attribution ----------------------------------------------

struct ProfileFixture {
  Dataset dataset;
  std::vector<uint32_t> clusters;
  frozen::FrozenTree ciur;  ///< frozen CIUR-tree
  TextSimilarity sim;
  StScorer scorer;

  ProfileFixture()
      : sim(TextMeasure::kExtendedJaccard), scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = 300;
    config.vocab_size = 150;
    config.seed = 99;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 5;
    clusters = ClusterDocuments(docs, copts).assignment;
    ciur = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, {}, &clusters));
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }

  std::vector<RstknnQuery> Queries(size_t count, size_t k) const {
    std::vector<RstknnQuery> queries;
    for (size_t i = 0; i < count; ++i) {
      const ObjectId qid = static_cast<ObjectId>((i * 41) % dataset.size());
      const StObject& q = dataset.object(qid);
      queries.push_back({q.loc, &q.doc, k, qid});
    }
    return queries;
  }
};

TEST(PhaseProfilerTest, SearchPhaseSumsReconcileWithWallTime) {
  const ProfileFixture f;
  const RstknnSearcher searcher(&f.ciur, &f.dataset, &f.scorer);
  const std::vector<RstknnQuery> queries = f.Queries(4, 6);

  for (RstknnAlgorithm algorithm :
       {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
    obs::PhaseProfiler profiler;
    RstknnOptions options;
    options.algorithm = algorithm;
    options.profiler = &profiler;
    for (const RstknnQuery& query : queries) {
      const Stopwatch wall;
      searcher.Search(query, options);
      const double wall_ms = wall.ElapsedMillis();
      // The acceptance bound of the profiling layer: per-phase self times
      // sum to at most the query's wall time (phases are disjoint
      // sub-intervals), and the hot phases actually fired.
      EXPECT_LE(profiler.SumMs(), wall_ms * 1.001 + 0.01);
      EXPECT_GT(profiler.SumMs(), 0.0);
      EXPECT_GT(profiler.calls(obs::Phase::kDescent), 0u);
      EXPECT_EQ(profiler.calls(obs::Phase::kFinalize), 1u);
      if (algorithm == RstknnAlgorithm::kProbe) {
        EXPECT_GT(profiler.calls(obs::Phase::kBounds), 0u);
      } else {
        EXPECT_GT(profiler.calls(obs::Phase::kMerge), 0u);
      }
    }
  }
}

TEST(PhaseProfilerTest, SearchResetsProfilerBetweenQueries) {
  const ProfileFixture f;
  const RstknnSearcher searcher(&f.ciur, &f.dataset, &f.scorer);
  const std::vector<RstknnQuery> queries = f.Queries(2, 5);

  obs::PhaseProfiler profiler;
  RstknnOptions options;
  options.profiler = &profiler;
  searcher.Search(queries[0], options);
  EXPECT_EQ(profiler.calls(obs::Phase::kFinalize), 1u);
  searcher.Search(queries[1], options);
  // Search() owns Reset(): the second query's counts are NOT stacked on the
  // first query's (finalize would read 2 otherwise).
  EXPECT_EQ(profiler.calls(obs::Phase::kFinalize), 1u);
}

// --- TraceEventWriter -----------------------------------------------------

TEST(TraceEventWriterTest, JsonParsesAndSpansNestWithinParents) {
  obs::QueryTrace trace(kOuter);
  trace.Enter(kInner);
  Spin(0.3);
  trace.Enter(kLeaf);
  Spin(0.3);
  trace.Exit();
  trace.Exit();
  trace.Finish();

  obs::TraceEventWriter writer;
  writer.AddThreadName(3, kOuter);
  writer.AddSpanTree(trace.root(), /*tid=*/3, /*ts_us=*/1000.0);

  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(writer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Get("displayTimeUnit"), nullptr);
  const obs::JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // thread_name metadata + one X event per span.
  ASSERT_EQ(events->AsArray().size(), 4u);

  double outer_start = 0, outer_end = 0;
  bool found_outer = false, found_leaf = false;
  for (const obs::JsonValue& e : events->AsArray()) {
    const std::string& ph = e.Get("ph")->AsString();
    if (ph == "M") {
      EXPECT_EQ(e.Get("name")->AsString(), "thread_name");
      EXPECT_EQ(e.Get("args")->Get("name")->AsString(), kOuter);
      continue;
    }
    EXPECT_EQ(ph, "X");
    EXPECT_EQ(e.Get("tid")->AsUint(), 3u);
    const double ts = e.Get("ts")->AsDouble();
    const double dur = e.Get("dur")->AsDouble();
    if (e.Get("name")->AsString() == kOuter) {
      found_outer = true;
      outer_start = ts;
      outer_end = ts + dur;
      EXPECT_DOUBLE_EQ(ts, 1000.0);
    }
    if (e.Get("name")->AsString() == kLeaf) found_leaf = true;
  }
  ASSERT_TRUE(found_outer);
  ASSERT_TRUE(found_leaf);
  // Every child slice lies inside the root slice (synthetic sequential
  // layout: children start at the parent's start, duration sums nest).
  for (const obs::JsonValue& e : events->AsArray()) {
    if (e.Get("ph")->AsString() != "X") continue;
    if (e.Get("name")->AsString() == kOuter) continue;
    const double ts = e.Get("ts")->AsDouble();
    const double dur = e.Get("dur")->AsDouble();
    EXPECT_GE(ts + 1e-6, outer_start);
    EXPECT_LE(ts + dur, outer_end + 1e-6);
  }
}

TEST(TraceEventWriterTest, CompleteEventCarriesArgs) {
  obs::TraceEventWriter writer;
  writer.AddComplete(kEvent, kCatTest, /*tid=*/2, /*ts_us=*/10.0,
                     /*dur_us=*/20.0, {kArgOne, 1.5});
  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(writer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& e = parsed.value().Get("traceEvents")->AsArray()[0];
  EXPECT_EQ(e.Get("name")->AsString(), kEvent);
  EXPECT_EQ(e.Get("cat")->AsString(), kCatTest);
  EXPECT_DOUBLE_EQ(e.Get("ts")->AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(e.Get("dur")->AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(e.Get("args")->Get(kArgOne)->AsDouble(), 1.5);
}

TEST(TraceEventWriterTest, SamplingGateKeepsOneInN) {
  obs::TraceEventWriter writer(16, /*sample_every=*/3);
  std::vector<bool> decisions;
  for (int i = 0; i < 9; ++i) decisions.push_back(writer.ShouldSample());
  const std::vector<bool> expected = {true,  false, false, true, false,
                                      false, true,  false, false};
  EXPECT_EQ(decisions, expected);

  obs::TraceEventWriter always(16, /*sample_every=*/1);
  EXPECT_TRUE(always.ShouldSample());
  EXPECT_TRUE(always.ShouldSample());
}

TEST(TraceEventWriterTest, BufferIsBoundedAndCountsDrops) {
  obs::TraceEventWriter writer(/*capacity=*/3, /*sample_every=*/1);
  for (int i = 0; i < 5; ++i) {
    writer.AddComplete(kEvent, kCatTest, 1, i * 10.0, 1.0);
  }
  EXPECT_EQ(writer.size(), 3u);
  EXPECT_EQ(writer.dropped(), 2u);
  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(writer.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Get("dropped")->AsUint(), 2u);
  EXPECT_EQ(parsed.value().Get("traceEvents")->AsArray().size(), 3u);
}

TEST(TraceEventWriterTest, WriteFileEmitsParseableDocument) {
  obs::TraceEventWriter writer;
  writer.AddComplete(kEvent, kCatTest, 1, 0.0, 5.0);
  const std::string path = testing::TempDir() + "/obs_profile.trace.json";
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(obs::JsonValue::Parse(content.value()).ok());
}

// --- Runtime telemetry ----------------------------------------------------

TEST(RuntimeTest, ReadRuntimeSampleSeesThisProcess) {
  const obs::RuntimeSample sample = obs::ReadRuntimeSample();
  EXPECT_GT(sample.max_rss_bytes, 0u);
#ifdef __linux__
  EXPECT_GT(sample.rss_bytes, 0u);
  EXPECT_GE(sample.threads, 1u);
#endif
}

TEST(RuntimeTest, SampleOncePublishesGauges) {
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  obs::RuntimeSampler::SampleOnce();
  const obs::MetricsSnapshot after = obs::MetricRegistry::Global().Snapshot();
  EXPECT_GT(after.gauges.at(obs::names::kRuntimeMaxRssBytes), 0.0);
  EXPECT_GE(after.gauges.at(obs::names::kRuntimeCpuUserMs), 0.0);
  EXPECT_EQ(after.Delta(before).counters.at(obs::names::kRuntimeSamples), 1u);
}

TEST(RuntimeTest, SamplerRunsOnPeriodAndStops) {
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  obs::RuntimeSampler sampler;
  sampler.Start(1);
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  const uint64_t samples = obs::MetricRegistry::Global()
                               .Snapshot()
                               .Delta(before)
                               .counters.at(obs::names::kRuntimeSamples);
  // At least the immediate sample plus the final one on Stop().
  EXPECT_GE(samples, 2u);
  sampler.Stop();  // idempotent
}

// --- BatchRunner integration ----------------------------------------------

TEST(BatchProfilingTest, QueueWaitHistogramCountsEveryQuery) {
  const ProfileFixture f;
  exec::ThreadPool pool(2);
  const exec::BatchRunner runner(&f.ciur, &f.dataset, &f.scorer, &pool);
  const std::vector<RstknnQuery> queries = f.Queries(6, 5);

  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  runner.RunRstknn(queries, {});
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.histograms.at(obs::names::kExecBatchQueueWaitMs).count,
            queries.size());
  EXPECT_EQ(delta.histograms.at(obs::names::kRstknnQueryMs).count,
            queries.size());
}

TEST(BatchProfilingTest, SetProfilingPublishesPerQueryPhases) {
  const ProfileFixture f;
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&f.ciur, &f.dataset, &f.scorer, &pool);
  runner.set_profiling(true);
  const std::vector<RstknnQuery> queries = f.Queries(6, 5);

  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  exec::BatchStats stats;
  runner.RunRstknn(queries, {}, &stats);
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);

  EXPECT_EQ(delta.counters.at(obs::names::kPhaseProfiledQueries),
            queries.size());
  const obs::HistogramSnapshot& descent =
      delta.histograms.at(obs::names::kPhaseDescentMs);
  EXPECT_EQ(descent.count, queries.size());
  // Aggregate reconciliation: the summed per-phase means stay at or below
  // the batch's busy time (phase slices are disjoint sub-intervals of each
  // query's wall time).
  double phase_sum_ms = 0.0;
  for (const char* name :
       {obs::names::kPhaseDescentMs, obs::names::kPhaseBoundsMs,
        obs::names::kPhaseMergeMs, obs::names::kPhaseIoMs,
        obs::names::kPhaseFinalizeMs}) {
    auto it = delta.histograms.find(name);
    if (it != delta.histograms.end()) phase_sum_ms += it->second.sum;
  }
  double busy_ms = 0.0;
  for (double ms : stats.worker_busy_ms) busy_ms += ms;
  EXPECT_GT(phase_sum_ms, 0.0);
  EXPECT_LE(phase_sum_ms, busy_ms * 1.001 + 0.05);
}

TEST(BatchProfilingTest, TraceEventsCoverEveryQueryAndParse) {
  const ProfileFixture f;
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&f.ciur, &f.dataset, &f.scorer, &pool);
  obs::TraceEventWriter writer(1 << 12, /*sample_every=*/2);
  runner.set_trace_events(&writer);
  const std::vector<RstknnQuery> queries = f.Queries(6, 5);
  runner.RunRstknn(queries, {});

  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(writer.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  size_t runs = 0, waits = 0, metadata = 0, spans = 0;
  for (const obs::JsonValue& e :
       parsed.value().Get("traceEvents")->AsArray()) {
    const std::string& ph = e.Get("ph")->AsString();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const std::string& name = e.Get("name")->AsString();
    if (name == obs::names::kTraceEventRun) {
      ++runs;
      EXPECT_NE(e.Get("args")->Get(obs::names::kTraceArgQueueWaitMs), nullptr);
    } else if (name == obs::names::kTraceEventQueueWait) {
      ++waits;
    } else {
      ++spans;
    }
  }
  EXPECT_EQ(runs, queries.size());        // every query gets a run slice
  EXPECT_EQ(waits, queries.size() / 2);   // 1-in-2 sampled queue slices
  EXPECT_EQ(metadata, pool.num_threads() + 1);  // workers + queue track
  EXPECT_GT(spans, 0u);                   // sampled span trees present
}

}  // namespace
}  // namespace rst
