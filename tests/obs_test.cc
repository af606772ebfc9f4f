#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "rst/obs/json.h"
#include "rst/obs/metrics.h"
#include "rst/obs/trace.h"

namespace rst::obs {
namespace {

// Scratch metric and span names owned by this binary: the unit under test
// is the registry/trace machinery itself, so these deliberately do not
// live in metric_names.h. Constants keep the call sites literal-free
// (rst_lint metric-name-literal).
constexpr char kTestAdds[] = "test.adds";
constexpr char kTestHist[] = "test.hist";
constexpr char kTestCounter[] = "test.counter";
constexpr char kTestGauge[] = "test.gauge";
constexpr char kQCount[] = "q.count";
constexpr char kQGauge[] = "q.gauge";
constexpr char kQLat[] = "q.lat";
constexpr char kDCount[] = "d.count";
constexpr char kDHist[] = "d.hist";
constexpr char kDGauge[] = "d.gauge";
constexpr char kSetup[] = "setup";
constexpr char kProbe[] = "probe";
constexpr char kExpand[] = "expand";
constexpr char kEntries[] = "entries";
constexpr char kBound[] = "bound";
constexpr char kRootItems[] = "root_items";
constexpr char kOuter[] = "outer";
constexpr char kInner[] = "inner";
constexpr char kHits[] = "hits";
constexpr char kLeftOpen[] = "left_open";
constexpr char kIgnored[] = "ignored";
constexpr char kRows[] = "rows";
constexpr char kPqPops[] = "pq_pops";
constexpr char kStressCounter[] = "stress.counter";
constexpr char kStressHist[] = "stress.hist";

// --- MetricRegistry -------------------------------------------------------

TEST(RegistryTest, CounterMergesThreadStripesExactly) {
  MetricRegistry registry;
  const Counter counter = registry.GetCounter(kTestAdds);
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 10000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();

  // Striped shards must merge without losing a single update.
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.counters.count("test.adds"));
  EXPECT_EQ(snap.counters.at("test.adds"), kThreads * kAddsPerThread);
}

TEST(RegistryTest, HistogramMergesThreadStripesExactly) {
  MetricRegistry registry;
  const HistogramRef hist =
      registry.GetHistogram(kTestHist, HistogramSpec::Linear(1.0, 1.0, 4));
  constexpr int kThreads = 6;
  constexpr uint64_t kRecordsPerThread = 5000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        hist.Record(static_cast<double>(t % 3));  // values 0, 1, 2
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.histograms.count("test.hist"));
  const HistogramSnapshot& h = snap.histograms.at("test.hist");
  EXPECT_EQ(h.count, kThreads * kRecordsPerThread);
  // Threads 0,3 record 0; 1,4 record 1; 2,5 record 2. Bounds {1,2,3,4}:
  // 0 and 1 land in bucket 0 (v <= 1), 2 in bucket 1.
  EXPECT_EQ(h.counts[0], 4 * kRecordsPerThread);
  EXPECT_EQ(h.counts[1], 2 * kRecordsPerThread);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 2.0);
}

TEST(RegistryTest, HandlesAreIdempotentAndSurviveReset) {
  MetricRegistry registry;
  const Counter a = registry.GetCounter(kTestCounter);
  const Counter b = registry.GetCounter(kTestCounter);
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(a.Value(), 7);  // same underlying metric

  const Gauge gauge = registry.GetGauge(kTestGauge);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);

  registry.Reset();
  EXPECT_EQ(a.Value(), 0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  a.Increment();  // handle must stay valid after Reset
  EXPECT_EQ(b.Value(), 1);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.count("test.counter"));
  EXPECT_TRUE(snap.gauges.count("test.gauge"));
}

TEST(RegistryTest, DefaultConstructedHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  HistogramRef hist;
  counter.Increment();
  gauge.Set(1.0);
  hist.Record(1.0);
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram hist(HistogramSpec{{1.0, 2.0, 4.0}});
  hist.Record(1.0);  // == bound 0 -> bucket 0
  hist.Record(1.5);  // bucket 1
  hist.Record(2.0);  // == bound 1 -> bucket 1
  hist.Record(4.0);  // == bound 2 -> bucket 2
  hist.Record(5.0);  // above all bounds -> overflow
  const HistogramSnapshot& snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 13.5);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 5.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 2.7);
}

TEST(HistogramTest, PercentileReadsCumulativeBuckets) {
  Histogram hist(HistogramSpec::Linear(1.0, 1.0, 10));  // bounds 1..10
  for (int v = 1; v <= 100; ++v) hist.Record(static_cast<double>(v % 10 + 1));
  // Ten values per bucket 1..10; p50 falls in the bucket bounded by 5.
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 1.0);

  Histogram empty(HistogramSpec::Linear(1.0, 1.0, 2));
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
}

TEST(HistogramTest, OverflowPercentileReportsObservedMax) {
  Histogram hist(HistogramSpec{{1.0}});
  hist.Record(50.0);
  hist.Record(80.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 80.0);
}

TEST(HistogramTest, SpecFactories) {
  const HistogramSpec exp = HistogramSpec::Exponential(1.0, 2.0, 4);
  ASSERT_EQ(exp.bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(exp.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(exp.bounds[3], 8.0);

  const HistogramSpec lin = HistogramSpec::Linear(0.5, 0.25, 3);
  ASSERT_EQ(lin.bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(lin.bounds[1], 0.75);
  EXPECT_DOUBLE_EQ(lin.bounds[2], 1.0);

  EXPECT_FALSE(HistogramSpec::LatencyMs().bounds.empty());
}

TEST(HistogramTest, MergeAccumulatesCountsAndExtremes) {
  Histogram a(HistogramSpec{{1.0, 2.0}});
  Histogram b(HistogramSpec{{1.0, 2.0}});
  a.Record(0.5);
  b.Record(1.5);
  b.Record(9.0);
  ASSERT_TRUE(a.Merge(b.snapshot()).ok());
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 11.0);
  EXPECT_DOUBLE_EQ(a.snapshot().min, 0.5);
  EXPECT_DOUBLE_EQ(a.snapshot().max, 9.0);
  EXPECT_EQ(a.snapshot().counts[0], 1u);
  EXPECT_EQ(a.snapshot().counts[1], 1u);
  EXPECT_EQ(a.snapshot().counts[2], 1u);
}

TEST(HistogramTest, MergeRejectsMismatchedBoundsUntouched) {
  Histogram a(HistogramSpec{{1.0, 2.0}});
  Histogram b(HistogramSpec{{1.0, 2.0, 4.0}});
  a.Record(0.5);
  b.Record(3.0);
  const Status s = a.Merge(b.snapshot());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The target histogram must be left exactly as it was.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.5);
  EXPECT_EQ(a.snapshot().counts[0], 1u);
  EXPECT_EQ(a.snapshot().counts[1], 0u);
  EXPECT_EQ(a.snapshot().counts[2], 0u);

  // Same bound count but different values is just as incompatible.
  Histogram c(HistogramSpec{{1.0, 3.0}});
  c.Record(2.0);
  EXPECT_EQ(a.Merge(c.snapshot()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.count(), 1u);
}

TEST(HistogramTest, PercentileEmptyHistogramIsZero) {
  Histogram empty(HistogramSpec{{1.0, 2.0}});
  EXPECT_DOUBLE_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(1.0), 0.0);
}

TEST(HistogramTest, PercentileAllValuesInOverflowBucket) {
  Histogram hist(HistogramSpec{{1.0, 2.0}});
  hist.Record(10.0);
  hist.Record(20.0);
  hist.Record(30.0);
  // Every quantile resolves to the overflow bucket -> the observed max.
  EXPECT_DOUBLE_EQ(hist.Percentile(0.01), 30.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 30.0);
}

TEST(HistogramTest, PercentileSingleBucketSpec) {
  // Degenerate one-bound spec: the bucket-upper-bound estimate is clamped to
  // the observed max while everything sits below the bound; quantiles landing
  // in the overflow bucket report the observed max.
  Histogram hist(HistogramSpec{{5.0}});
  hist.Record(1.0);
  hist.Record(4.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 4.0);
  hist.Record(42.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 42.0);
}

TEST(HistogramTest, PercentileAfterMergeSeesCombinedDistribution) {
  // Post-Merge percentiles read the combined cumulative counts, including
  // the merged-in extremes (overflow quantiles report the merged max).
  Histogram a(HistogramSpec::Linear(1.0, 1.0, 4));  // bounds 1..4
  Histogram b(HistogramSpec::Linear(1.0, 1.0, 4));
  for (int i = 0; i < 8; ++i) a.Record(1.0);  // all of a in bucket 0
  b.Record(4.0);
  b.Record(50.0);  // overflow
  ASSERT_TRUE(a.Merge(b.snapshot()).ok());
  // 10 samples: 8 at bound 1, one at bound 4, one overflowing.
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(a.Percentile(0.9), 4.0);
  EXPECT_DOUBLE_EQ(a.Percentile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(a.snapshot().max, 50.0);
}

// --- Snapshot export / round-trip -----------------------------------------

TEST(SnapshotTest, JsonRoundTrip) {
  MetricRegistry registry;
  registry.GetCounter(kQCount).Add(42);
  registry.GetGauge(kQGauge).Set(1.25);
  const HistogramRef hist =
      registry.GetHistogram(kQLat, HistogramSpec{{1.0, 4.0}});
  hist.Record(0.5);
  hist.Record(8.0);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::string json = snap.ToJson();
  const Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  const MetricsSnapshot& back = parsed.value();
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_TRUE(back.histograms.count("q.lat"));
  const HistogramSnapshot& h = back.histograms.at("q.lat");
  EXPECT_EQ(h.bounds, snap.histograms.at("q.lat").bounds);
  EXPECT_EQ(h.counts, snap.histograms.at("q.lat").counts);
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 8.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 8.0);
}

TEST(SnapshotTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("[1,2,3]").ok());
}

TEST(SnapshotTest, DeltaSubtractsCountersAndHistograms) {
  MetricRegistry registry;
  const Counter counter = registry.GetCounter(kDCount);
  const HistogramRef hist =
      registry.GetHistogram(kDHist, HistogramSpec{{10.0}});
  counter.Add(5);
  hist.Record(1.0);
  const MetricsSnapshot base = registry.Snapshot();

  counter.Add(3);
  hist.Record(2.0);
  registry.GetGauge(kDGauge).Set(7.0);
  const MetricsSnapshot delta = registry.Snapshot().Delta(base);

  EXPECT_EQ(delta.counters.at("d.count"), 3u);
  EXPECT_EQ(delta.histograms.at("d.hist").count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms.at("d.hist").sum, 2.0);
  // Gauges keep their current value in a delta.
  EXPECT_DOUBLE_EQ(delta.gauges.at("d.gauge"), 7.0);
}

// --- QueryTrace -----------------------------------------------------------

TEST(TraceTest, NestingOrderAndMergeByName) {
  QueryTrace trace("query");
  trace.Enter(kSetup);
  trace.Exit();
  trace.Enter(kProbe);
  for (int i = 0; i < 3; ++i) {
    trace.Enter(kExpand);  // merges into one child, calls accumulate
    trace.AddCount(kEntries, 4);
    trace.Exit();
  }
  trace.Enter(kBound);
  trace.Exit();
  trace.Exit();
  trace.Finish();

  const Span& root = trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.calls, 1u);
  ASSERT_EQ(root.children.size(), 2u);  // first-entered order
  EXPECT_EQ(root.children[0]->name, "setup");
  EXPECT_EQ(root.children[1]->name, "probe");

  const Span& probe = *root.children[1];
  ASSERT_EQ(probe.children.size(), 2u);
  EXPECT_EQ(probe.children[0]->name, "expand");
  EXPECT_EQ(probe.children[0]->calls, 3u);
  EXPECT_EQ(probe.children[0]->counts.at("entries"), 12u);
  EXPECT_EQ(probe.children[1]->name, "bound");
}

TEST(TraceTest, AddCountTargetsInnermostOpenSpan) {
  QueryTrace trace;
  trace.AddCount(kRootItems, 2);
  trace.Enter(kOuter);
  trace.Enter(kInner);
  trace.AddCount(kHits, 5);
  trace.Exit();
  trace.AddCount(kHits, 1);  // now attributed to "outer"
  trace.Exit();
  trace.Finish();

  const Span& root = trace.root();
  EXPECT_EQ(root.counts.at("root_items"), 2u);
  const Span& outer = *root.children[0];
  EXPECT_EQ(outer.counts.at("hits"), 1u);
  EXPECT_EQ(outer.children[0]->counts.at("hits"), 5u);
}

TEST(TraceTest, MergeFoldsSpansByNameIntoInnermostOpenSpan) {
  QueryTrace first(kProbe);
  first.Enter(kExpand);
  first.AddCount(kEntries, 4);
  first.Exit();
  first.AddCount(kRootItems, 1);
  first.Finish();
  QueryTrace second(kProbe);
  second.Enter(kBound);
  second.Exit();
  second.Enter(kExpand);
  second.AddCount(kEntries, 2);
  second.Exit();
  second.Finish();

  QueryTrace batch("query");
  batch.Enter(kOuter);
  batch.Merge(first);
  batch.Merge(second);
  batch.Exit();
  batch.Finish();

  const Span& root = batch.root();
  ASSERT_EQ(root.children.size(), 1u);
  const Span& outer = *root.children[0];
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(outer.counts.at("root_items"), 1u);  // the merged roots' counts
  ASSERT_EQ(outer.children.size(), 2u);  // first-seen order across merges
  EXPECT_EQ(outer.children[0]->name, "expand");
  EXPECT_EQ(outer.children[0]->calls, 2u);
  EXPECT_EQ(outer.children[0]->counts.at("entries"), 6u);
  EXPECT_EQ(outer.children[0]->total_ms,
            first.root().children[0]->total_ms +
                second.root().children[1]->total_ms);
  EXPECT_EQ(outer.children[1]->name, "bound");
  EXPECT_EQ(outer.children[1]->calls, 1u);
}

TEST(TraceTest, AddCompletedMergesIntoInnermostOpenSpan) {
  QueryTrace trace("query");
  trace.Enter(kOuter);
  const std::pair<std::string_view, uint64_t> hits[] = {{kHits, 3}};
  trace.AddCompleted(kExpand, 1.5, 2, hits);
  trace.AddCompleted(kBound, 0.5, 1, {});
  trace.AddCompleted(kExpand, 0.25, 1, hits);  // merges by name
  trace.Exit();
  trace.Finish();

  const Span& outer = *trace.root().children.at(0);
  ASSERT_EQ(outer.children.size(), 2u);  // first-added order
  const Span& expand = *outer.children[0];
  EXPECT_EQ(expand.name, "expand");
  EXPECT_DOUBLE_EQ(expand.total_ms, 1.75);
  EXPECT_EQ(expand.calls, 3u);
  EXPECT_EQ(expand.counts.at("hits"), 6u);
  EXPECT_EQ(outer.children[1]->name, "bound");
  EXPECT_TRUE(outer.children[1]->counts.empty());
}

TEST(TraceTest, FinishClosesDanglingSpansAndStampsTimes) {
  QueryTrace trace;
  trace.Enter(kLeftOpen);
  trace.Finish();
  const Span& root = trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_GE(root.total_ms, root.children[0]->total_ms);
  EXPECT_GE(root.children[0]->total_ms, 0.0);
}

TEST(TraceTest, RaiiSpanAndNullTraceAreSafe) {
  {
    TraceSpan disabled(nullptr, "noop");
    disabled.AddCount(kIgnored, 9);  // must not crash
  }
  QueryTrace trace;
  {
    TraceSpan span(&trace, "scan");
    span.AddCount(kRows, 7);
  }
  trace.Finish();
  ASSERT_EQ(trace.root().children.size(), 1u);
  EXPECT_EQ(trace.root().children[0]->counts.at("rows"), 7u);
}

TEST(TraceTest, JsonExportParsesBack) {
  QueryTrace trace("rstknn");
  {
    TraceSpan span(&trace, "probe");
    span.AddCount(kPqPops, 3);
  }
  trace.Finish();

  const Result<JsonValue> parsed = JsonValue::Parse(trace.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Get("name")->AsString(), "rstknn");
  const JsonValue* children = root.Get("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->AsArray().size(), 1u);
  const JsonValue& probe = children->AsArray()[0];
  EXPECT_EQ(probe.Get("name")->AsString(), "probe");
  EXPECT_EQ(probe.Get("counts")->Get("pq_pops")->AsUint(), 3u);
}

TEST(TraceTest, ToStringShowsCallMultiplicity) {
  QueryTrace trace;
  for (int i = 0; i < 4; ++i) {
    TraceSpan span(&trace, "pop");
  }
  trace.Finish();
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("pop"), std::string::npos);
  EXPECT_NE(text.find("4"), std::string::npos);
}

TEST(MetricsTest, ResetRacesWritersWithoutCorruption) {
  // Backs the documented Reset() guarantee: concurrent handle updates plus
  // Reset()/Snapshot() never tear a value. We cannot assert an exact final
  // count (an in-flight add may land on either side of a reset), only that
  // every observed value is one a sequential interleaving could produce.
  MetricRegistry registry;
  const Counter counter = registry.GetCounter(kStressCounter);
  const HistogramRef hist =
      registry.GetHistogram(kStressHist, HistogramSpec::Linear(1.0, 1.0, 8));
  constexpr size_t kWriters = 4;
  constexpr uint64_t kAddsPerWriter = 20000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kAddsPerWriter; ++i) {
        counter.Add(1);
        hist.Record(3.0);
      }
    });
  }
  std::thread resetter([&] {
    for (int i = 0; i < 50; ++i) {
      registry.Reset();
      const MetricsSnapshot snap = registry.Snapshot();
      const uint64_t c = snap.counters.at("stress.counter");
      EXPECT_LE(c, kWriters * kAddsPerWriter);
      const HistogramSnapshot& h = snap.histograms.at("stress.hist");
      EXPECT_LE(h.count, kWriters * kAddsPerWriter);
      // Every sample is 3.0; atomic (never torn) accumulation means the sum
      // stays an exact multiple of 3 no matter how Reset interleaves.
      EXPECT_DOUBLE_EQ(std::fmod(h.sum, 3.0), 0.0);
      EXPECT_LE(h.sum, 3.0 * kWriters * kAddsPerWriter);
    }
  });
  for (std::thread& th : writers) th.join();
  resetter.join();

  registry.Reset();
  const MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("stress.counter"), 0u);
  EXPECT_EQ(final_snap.histograms.at("stress.hist").count, 0u);
}

// --- JsonValue parser -----------------------------------------------------

TEST(JsonTest, ParseScalarsAndContainers) {
  const Result<JsonValue> parsed =
      JsonValue::Parse(R"({"a": 1.5, "b": [true, null, "x\n"], "c": -3})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& v = parsed.value();
  EXPECT_DOUBLE_EQ(v.Get("a")->AsDouble(), 1.5);
  const std::vector<JsonValue>& arr = v.Get("b")->AsArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].AsBool());
  EXPECT_EQ(arr[1].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(arr[2].AsString(), "x\n");
  EXPECT_DOUBLE_EQ(v.Get("c")->AsDouble(), -3.0);
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonTest, ParseRejectsTrailingGarbageAndTruncation) {
  EXPECT_FALSE(JsonValue::Parse("{} extra").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"a": )").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(JsonTest, WriterEscapesAndRoundTrips) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("msg");
  writer.String("line1\nline2\t\"q\"");
  writer.Key("n");
  writer.Uint(18446744073709551615ull);
  writer.EndObject();
  const Result<JsonValue> parsed = JsonValue::Parse(writer.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Get("msg")->AsString(), "line1\nline2\t\"q\"");
}

TEST(JsonTest, WriterEscapesControlCharacters) {
  JsonWriter writer;
  writer.String(std::string("a\b\f\x01\x1f") + "z");
  EXPECT_EQ(writer.str(), "\"a\\b\\f\\u0001\\u001fz\"");
  // Every escaped form parses back to the original bytes.
  const Result<JsonValue> parsed = JsonValue::Parse(writer.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), std::string("a\b\f\x01\x1f") + "z");
}

TEST(JsonTest, WriterPassesValidUtf8Verbatim) {
  // 2-, 3-, and 4-byte sequences: é, €, 😀.
  const std::string s = "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80";
  JsonWriter writer;
  writer.String(s);
  EXPECT_EQ(writer.str(), "\"" + s + "\"");
}

TEST(JsonTest, WriterReplacesInvalidUtf8WithReplacementCharacter) {
  const std::string fffd = "\xEF\xBF\xBD";
  const auto escaped = [](std::string_view s) {
    JsonWriter writer;
    writer.String(s);
    return writer.str();
  };
  // Lone continuation byte, truncated lead, and bytes never valid in UTF-8
  // each become one U+FFFD; surrounding ASCII is untouched.
  EXPECT_EQ(escaped("a\x80z"), "\"a" + fffd + "z\"");
  EXPECT_EQ(escaped("a\xC3"), "\"a" + fffd + "\"");
  EXPECT_EQ(escaped("\xFE\xFF"), "\"" + fffd + fffd + "\"");
  // Overlong encoding of '/' (C0 AF) and a CESU-8 surrogate (ED A0 80) are
  // rejected byte-by-byte.
  EXPECT_EQ(escaped("\xC0\xAF"), "\"" + fffd + fffd + "\"");
  EXPECT_EQ(escaped("\xED\xA0\x80"), "\"" + fffd + fffd + fffd + "\"");
  // A valid sequence right after an invalid byte still passes through.
  EXPECT_EQ(escaped("\x80\xC3\xA9"), "\"" + fffd + "\xC3\xA9\"");
  // The output is always parseable JSON.
  EXPECT_TRUE(JsonValue::Parse(escaped("\xFF\xC3\xA9\x80")).ok());
}

}  // namespace
}  // namespace rst::obs
