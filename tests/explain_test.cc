#include "rst/obs/explain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

// ---------------------------------------------------------------------------
// ExplainRecorder unit behavior

obs::ExplainDecision MakeDecision(uint64_t node, uint32_t level,
                                  obs::ExplainVerdict verdict,
                                  uint64_t count) {
  obs::ExplainDecision d;
  d.node_id = node;
  d.level = level;
  d.verdict = verdict;
  d.bound = obs::ExplainBound::kLowerBound;
  d.q_min = 0.25;
  d.q_max = 0.75;
  d.subtree_count = count;
  return d;
}

TEST(ExplainRecorderTest, TalliesPerLevelAndCapsTheLog) {
  obs::ExplainRecorder recorder(/*max_decisions=*/2);
  recorder.SetAlgorithm("probe");
  recorder.Record(MakeDecision(1, 0, obs::ExplainVerdict::kPrune, 5));
  recorder.Record(MakeDecision(2, 1, obs::ExplainVerdict::kReportHit, 2));
  recorder.Record(MakeDecision(3, 1, obs::ExplainVerdict::kExpand, 0));

  EXPECT_EQ(recorder.totals().pruned, 1u);
  EXPECT_EQ(recorder.totals().expanded, 1u);
  EXPECT_EQ(recorder.totals().reported_hit, 1u);
  EXPECT_EQ(recorder.totals().reported_miss, 0u);
  EXPECT_EQ(recorder.decisions(), 3u);

  ASSERT_EQ(recorder.levels().size(), 2u);
  EXPECT_EQ(recorder.levels()[0].level, 0u);
  EXPECT_EQ(recorder.levels()[0].pruned, 1u);
  EXPECT_EQ(recorder.levels()[0].objects_pruned, 5u);
  EXPECT_EQ(recorder.levels()[1].reported_hit, 1u);
  EXPECT_EQ(recorder.levels()[1].expanded, 1u);
  EXPECT_EQ(recorder.levels()[1].objects_reported, 2u);

  // The log keeps the first `max_decisions` decisions; overflow is counted.
  ASSERT_EQ(recorder.log().size(), 2u);
  EXPECT_EQ(recorder.log()[0].node_id, 1u);
  EXPECT_EQ(recorder.log()[1].node_id, 2u);
  EXPECT_EQ(recorder.log_dropped(), 1u);
  EXPECT_NE(recorder.ToJson().find("\"log_dropped\":1"), std::string::npos);
}

TEST(ExplainRecorderTest, ResetClearsStateButKeepsTheCap) {
  obs::ExplainRecorder recorder(/*max_decisions=*/4);
  recorder.SetAlgorithm("probe");
  recorder.Record(MakeDecision(1, 0, obs::ExplainVerdict::kPrune, 3));
  recorder.Reset();
  EXPECT_EQ(recorder.decisions(), 0u);
  EXPECT_TRUE(recorder.levels().empty());
  EXPECT_TRUE(recorder.log().empty());
  EXPECT_EQ(recorder.log_dropped(), 0u);
  EXPECT_TRUE(recorder.algorithm().empty());
  EXPECT_EQ(recorder.max_decisions(), 4u);
}

TEST(ExplainRecorderTest, MergeKeepsTheBatchLogCapAndCountsTheRest) {
  // Three per-query recorders with the batch's cap of 3, merged in query
  // order, keep the batch's first three decisions; every other decision
  // counts as dropped.
  obs::ExplainRecorder first(/*max_decisions=*/3);
  first.SetAlgorithm("probe");
  first.Record(MakeDecision(1, 0, obs::ExplainVerdict::kExpand, 0));
  first.Record(MakeDecision(2, 1, obs::ExplainVerdict::kPrune, 4));
  obs::ExplainRecorder second(/*max_decisions=*/3);
  second.SetAlgorithm("probe");
  for (uint64_t node = 10; node < 14; ++node) {  // one past its own cap
    second.Record(MakeDecision(node, 2, obs::ExplainVerdict::kReportMiss, 1));
  }
  ASSERT_EQ(second.log_dropped(), 1u);
  obs::ExplainRecorder third(/*max_decisions=*/3);
  third.SetAlgorithm("probe");
  third.Record(MakeDecision(20, 0, obs::ExplainVerdict::kReportHit, 2));

  obs::ExplainRecorder batch(/*max_decisions=*/3);
  batch.Merge(first);
  EXPECT_EQ(batch.algorithm(), "probe");  // stamped by the first merge
  batch.Merge(second);
  batch.Merge(third);

  EXPECT_EQ(batch.decisions(), 7u);
  EXPECT_EQ(batch.totals().expanded, 1u);
  EXPECT_EQ(batch.totals().pruned, 1u);
  EXPECT_EQ(batch.totals().reported_miss, 4u);
  EXPECT_EQ(batch.totals().reported_hit, 1u);
  ASSERT_EQ(batch.levels().size(), 3u);
  EXPECT_EQ(batch.levels()[0].expanded, 1u);
  EXPECT_EQ(batch.levels()[0].reported_hit, 1u);
  EXPECT_EQ(batch.levels()[0].objects_reported, 2u);
  EXPECT_EQ(batch.levels()[1].objects_pruned, 4u);
  EXPECT_EQ(batch.levels()[2].level, 2u);
  EXPECT_EQ(batch.levels()[2].reported_miss, 4u);
  ASSERT_EQ(batch.log().size(), 3u);
  EXPECT_EQ(batch.log()[0].node_id, 1u);
  EXPECT_EQ(batch.log()[1].node_id, 2u);
  EXPECT_EQ(batch.log()[2].node_id, 10u);
  EXPECT_EQ(batch.log_dropped(), 4u);  // 11, 12, 13 and 20

  // Recording the same decisions into one recorder gives the same report.
  obs::ExplainRecorder direct(/*max_decisions=*/3);
  direct.SetAlgorithm("probe");
  for (const obs::ExplainRecorder* part : {&first, &second, &third}) {
    for (const obs::ExplainDecision& d : part->log()) direct.Record(d);
  }
  direct.Record(MakeDecision(13, 2, obs::ExplainVerdict::kReportMiss, 1));
  EXPECT_EQ(batch.ToJson(), direct.ToJson());
}

TEST(ExplainRecorderTest, MergeIntoSummaryOnlyRecorderKeepsNoLog) {
  obs::ExplainRecorder query(/*max_decisions=*/2);
  query.SetAlgorithm("contribution_list");
  query.Record(MakeDecision(1, 0, obs::ExplainVerdict::kPrune, 3));
  obs::ExplainRecorder batch;  // summary only
  batch.SetAlgorithm("probe");
  batch.Merge(query);
  EXPECT_EQ(batch.algorithm(), "probe");  // an existing stamp is kept
  EXPECT_EQ(batch.totals().pruned, 1u);
  EXPECT_TRUE(batch.log().empty());
  EXPECT_EQ(batch.log_dropped(), 0u);
}

TEST(ExplainRecorderTest, CheckReconcilesNamesTheBrokenIdentity) {
  obs::ExplainRecorder recorder;
  recorder.Record(MakeDecision(1, 0, obs::ExplainVerdict::kPrune, 3));
  recorder.Record(MakeDecision(2, 0, obs::ExplainVerdict::kExpand, 0));
  EXPECT_TRUE(recorder.CheckReconciles(/*expansions=*/1, /*pruned_entries=*/1,
                                       /*reported_entries=*/0)
                  .ok());
  const Status broken = recorder.CheckReconciles(2, 1, 0);
  EXPECT_FALSE(broken.ok());
  EXPECT_NE(broken.message().find("expand"), std::string::npos);
  EXPECT_FALSE(recorder.CheckReconciles(1, 7, 0).ok());
  EXPECT_FALSE(recorder.CheckReconciles(1, 1, 7).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: recorder wired through RstknnSearcher / exec::BatchRunner

struct ExplainFixture {
  Dataset dataset;
  std::vector<uint32_t> clusters;
  IurTree tree;  // plain IUR-tree
  IurTree ciur;  // clustered variant
  frozen::FrozenTree frozen_tree;  // the snapshots RSTkNN searches
  frozen::FrozenTree frozen_ciur;
  TextSimilarity sim;
  StScorer scorer;

  explicit ExplainFixture(size_t num_objects = 400)
      : tree(IurTree::Build({}, {})),
        ciur(IurTree::Build({}, {})),
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = num_objects;
    config.vocab_size = 200;
    config.seed = 77;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 6;
    clusters = ClusterDocuments(docs, copts).assignment;
    tree = IurTree::BuildFromDataset(dataset, {});
    ciur = IurTree::BuildFromDataset(dataset, {}, &clusters);
    frozen_tree = frozen::FrozenTree::Freeze(tree);
    frozen_ciur = frozen::FrozenTree::Freeze(ciur);
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }

  std::vector<RstknnQuery> Queries(size_t count, size_t k) const {
    std::vector<RstknnQuery> queries;
    queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const ObjectId qid = static_cast<ObjectId>((i * 37) % dataset.size());
      const StObject& q = dataset.object(qid);
      queries.push_back({q.loc, &q.doc, k, qid});
    }
    return queries;
  }
};

/// The reconciliation contract: for every query, on both tree variants and
/// both algorithms, the recorder's decision totals match the searcher's own
/// counters exactly — the explain report is the stats, itemized.
TEST(ExplainSearchTest, TotalsReconcileWithRstknnStats) {
  const ExplainFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(16, 6);

  for (const frozen::FrozenTree* tree : {&f.frozen_tree, &f.frozen_ciur}) {
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      const RstknnSearcher searcher(tree, &f.dataset, &f.scorer);
      obs::ExplainRecorder recorder;
      RstknnOptions options;
      options.algorithm = algorithm;
      options.explain = &recorder;

      for (const RstknnQuery& q : queries) {
        const RstknnResult result = searcher.Search(q, options);
        ASSERT_GT(recorder.decisions(), 0u);
        EXPECT_TRUE(recorder
                        .CheckReconciles(result.stats.expansions,
                                         result.stats.pruned_entries,
                                         result.stats.reported_entries)
                        .ok())
            << "algo=" << static_cast<int>(algorithm)
            << " query=" << q.self;
        // Reported objects itemized by the recorder == the answer set.
        uint64_t objects_reported = 0;
        for (const obs::DecisionCounters& level : recorder.levels()) {
          objects_reported += level.objects_reported;
        }
        EXPECT_EQ(objects_reported, result.answers.size());
      }
    }
  }
}

/// The determinism contract: same query + dataset + seed produces
/// byte-identical explain JSON — across repeated runs, across separate
/// freezes of the same tree (explain ids depend on tree structure alone),
/// and across batch thread counts.
TEST(ExplainSearchTest, JsonIsByteIdenticalAcrossRunsAndThreadCounts) {
  const ExplainFixture f;
  const size_t kQueries = 8;
  const std::vector<RstknnQuery> queries = f.Queries(kQueries, 5);

  for (const bool clustered : {false, true}) {
    const frozen::FrozenTree* tree =
        clustered ? &f.frozen_ciur : &f.frozen_tree;
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      RstknnOptions options;
      options.algorithm = algorithm;

      // Serial reference.
      const RstknnSearcher searcher(tree, &f.dataset, &f.scorer);
      obs::ExplainRecorder recorder;
      options.explain = &recorder;
      std::vector<std::string> reference;
      for (const RstknnQuery& q : queries) {
        searcher.Search(q, options);
        reference.push_back(recorder.ToJson());
      }

      // Second serial run on a fresh freeze of the same tree: same bytes.
      const frozen::FrozenTree refrozen =
          frozen::FrozenTree::Freeze(clustered ? f.ciur : f.tree);
      const RstknnSearcher rerun(&refrozen, &f.dataset, &f.scorer);
      for (size_t i = 0; i < queries.size(); ++i) {
        rerun.Search(queries[i], options);
        EXPECT_EQ(recorder.ToJson(), reference[i]) << "rerun query " << i;
      }

      // Batched runs: a journal with slow_ms = 0 admits every query (only
      // index 0 by the stride) with its explain JSON, keyed by index; any
      // thread count must reproduce the serial reference.
      for (size_t threads : {1u, 8u}) {
        const std::string path = testing::TempDir() + "/explain_slow.jsonl";
        obs::JournalHeader header;
        header.sample_every = 1000;
        header.slow_ms = 0.0;
        obs::WorkloadRecorder journal;
        ASSERT_TRUE(journal.Open(path, header).ok());
        exec::ThreadPool pool(threads);
        exec::BatchRunner runner(tree, &f.dataset, &f.scorer, &pool);
        runner.set_journal(&journal);
        RstknnOptions batch_options;
        batch_options.algorithm = algorithm;
        runner.RunRstknn(queries, batch_options);
        ASSERT_TRUE(journal.Close().ok());

        const Result<std::string> text = ReadFileToString(path);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        std::vector<bool> seen(queries.size(), false);
        size_t start = text.value().find('\n') + 1;  // skip the header
        for (size_t end; (end = text.value().find('\n', start)) !=
                         std::string::npos;
             start = end + 1) {
          const Result<obs::JsonValue> record = obs::JsonValue::Parse(
              std::string_view(text.value()).substr(start, end - start));
          ASSERT_TRUE(record.ok()) << record.status().ToString();
          const uint64_t index = record.value().Get("index")->AsUint();
          ASSERT_LT(index, reference.size());
          seen[index] = true;
          const obs::JsonValue* explain = record.value().Get("explain");
          ASSERT_NE(explain, nullptr) << "query " << index;
          EXPECT_EQ(*explain,
                    obs::JsonValue::Parse(reference[index]).value())
              << "threads=" << threads << " query=" << index;
          const obs::JsonValue* trace = record.value().Get("trace");
          ASSERT_NE(trace, nullptr) << "query " << index;
          EXPECT_EQ(trace->Get("name")->AsString(), "rstknn");
        }
        EXPECT_EQ(seen, std::vector<bool>(queries.size(), true))
            << "threads=" << threads;
        std::remove(path.c_str());
      }
    }
  }
}

/// A query that returns before searching (k = 0, or an empty tree) still
/// resets and stamps the recorder: it must not carry the previous query's
/// decisions, and its (empty) report reconciles with its zero stats.
TEST(ExplainSearchTest, EarlyReturnLeavesNoStaleDecisions) {
  const ExplainFixture f(300);
  const RstknnQuery query = f.Queries(1, 5).front();
  RstknnQuery no_k = query;
  no_k.k = 0;
  const frozen::FrozenTree empty =
      frozen::FrozenTree::Freeze(IurTree::Build({}, {}));

  for (RstknnAlgorithm algorithm :
       {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
    obs::ExplainRecorder recorder;
    RstknnOptions options;
    options.algorithm = algorithm;
    options.explain = &recorder;
    const RstknnSearcher searcher(&f.frozen_tree, &f.dataset, &f.scorer);
    const RstknnSearcher empty_searcher(&empty, &f.dataset, &f.scorer);
    for (const bool empty_tree : {false, true}) {
      searcher.Search(query, options);
      ASSERT_GT(recorder.decisions(), 0u);
      const std::string algorithm_name = recorder.algorithm();
      const RstknnResult result = empty_tree
                                      ? empty_searcher.Search(query, options)
                                      : searcher.Search(no_k, options);
      EXPECT_TRUE(result.answers.empty());
      EXPECT_EQ(recorder.decisions(), 0u) << "empty_tree=" << empty_tree;
      EXPECT_EQ(recorder.algorithm(), algorithm_name);
      EXPECT_TRUE(recorder
                      .CheckReconciles(result.stats.expansions,
                                       result.stats.pruned_entries,
                                       result.stats.reported_entries)
                      .ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Where the search hooks sit: with all four instruments attached, the span
// tree, the phase profiler, EXPLAIN and the heatmap each itemize the same
// work RstknnStats counts.

struct SpanTotals {
  uint64_t calls = 0;
  std::map<std::string, uint64_t> counts;
};

/// Sums the calls and counts of every span named `name` under `span`, and
/// collects the names of all spans below it.
void CollectSpans(const obs::Span& span, std::string_view name,
                  SpanTotals* totals, std::set<std::string>* names) {
  for (const auto& child : span.children) {
    names->insert(child->name);
    if (child->name == name) {
      totals->calls += child->calls;
      for (const auto& [key, n] : child->counts) totals->counts[key] += n;
    }
    CollectSpans(*child, name, totals, names);
  }
}

SpanTotals Spans(const obs::QueryTrace& trace, std::string_view name) {
  SpanTotals totals;
  std::set<std::string> names;
  CollectSpans(trace.root(), name, &totals, &names);
  return totals;
}

/// The ms of the algorithm span's child named `name` (0 when absent).
double ChildMs(const obs::Span& top, std::string_view name) {
  for (const auto& child : top.children) {
    if (child->name == name) return child->total_ms;
  }
  return 0.0;
}

/// Everything of a span tree but its times: names, calls and counts, in
/// child order.
void AppendShape(const obs::Span& span, std::string* out) {
  *out += span.name + " x" + std::to_string(span.calls);
  for (const auto& [key, n] : span.counts) {
    *out += " " + key + "=" + std::to_string(n);
  }
  *out += " {";
  for (const auto& child : span.children) AppendShape(*child, out);
  *out += "}";
}

std::string Shape(const obs::QueryTrace& trace) {
  std::string out;
  AppendShape(trace.root(), &out);
  return out;
}

TEST(SearchHooksTest, SpansPhasesAndDecisionsItemizeTheStats) {
  const ExplainFixture f(600);
  const std::vector<RstknnQuery> queries = f.Queries(6, 5);
  namespace names = obs::names;

  for (const frozen::FrozenTree* tree : {&f.frozen_tree, &f.frozen_ciur}) {
    const RstknnSearcher searcher(tree, &f.dataset, &f.scorer);
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      const bool probe = algorithm == RstknnAlgorithm::kProbe;
      for (const RstknnQuery& q : queries) {
        SCOPED_TRACE(::testing::Message()
                     << "ciur=" << (tree == &f.frozen_ciur)
                     << " probe=" << probe << " query=" << q.self);
        obs::QueryTrace trace;
        obs::PhaseProfiler profiler;
        obs::ExplainRecorder explain;
        obs::HeatmapRecorder heatmap;
        RstknnOptions options;
        options.algorithm = algorithm;
        options.trace = &trace;
        options.profiler = &profiler;
        options.explain = &explain;
        options.heatmap = &heatmap;
        const RstknnResult result = searcher.Search(q, options);
        trace.Finish();
        const RstknnStats& s = result.stats;

        // Nesting: one algorithm span under the root, and every search span
        // directly below it.
        ASSERT_EQ(trace.root().children.size(), 1u);
        const obs::Span& top = *trace.root().children.front();
        EXPECT_EQ(top.name, probe ? names::kSpanRstknnProbe
                                  : names::kSpanRstknnContributionList);
        const std::set<std::string> allowed =
            probe ? std::set<std::string>{names::kSpanSetup,
                                          names::kSpanProbeGuaranteed,
                                          names::kSpanProbePotential,
                                          names::kSpanExpand}
                  : std::set<std::string>{names::kSpanPick,
                                          names::kSpanContributions,
                                          names::kSpanExpand};
        for (const auto& child : top.children) {
          EXPECT_TRUE(allowed.count(child->name) > 0) << child->name;
          EXPECT_TRUE(child->children.empty()) << child->name;
        }
        // The children follow the time record's row order, which is also
        // the order the search first enters its regions.
        const std::vector<std::string> row_order = {
            names::kSpanSetup,         names::kSpanProbeGuaranteed,
            names::kSpanProbePotential, names::kSpanPick,
            names::kSpanContributions, names::kSpanExpand};
        size_t next_row = 0;
        for (const auto& child : top.children) {
          const auto row = std::find(row_order.begin() + next_row,
                                     row_order.end(), child->name);
          ASSERT_NE(row, row_order.end()) << child->name << " out of order";
          next_row = static_cast<size_t>(row - row_order.begin()) + 1;
        }
        // Each phase's time is the sum of its rows' span times: both are
        // read from the one record.
        EXPECT_DOUBLE_EQ(profiler.total_ms(obs::Phase::kDescent),
                         ChildMs(top, names::kSpanSetup) +
                             ChildMs(top, names::kSpanPick) +
                             ChildMs(top, names::kSpanExpand));
        EXPECT_DOUBLE_EQ(profiler.total_ms(obs::Phase::kBounds),
                         ChildMs(top, names::kSpanProbeGuaranteed) +
                             ChildMs(top, names::kSpanProbePotential));
        EXPECT_DOUBLE_EQ(profiler.total_ms(obs::Phase::kMerge),
                         ChildMs(top, names::kSpanContributions));
        // A trace alone records the same spans.
        obs::QueryTrace trace_only;
        RstknnOptions trace_options;
        trace_options.algorithm = algorithm;
        trace_options.trace = &trace_only;
        searcher.Search(q, trace_options);
        trace_only.Finish();
        EXPECT_EQ(Shape(trace_only), Shape(trace));

        const SpanTotals expand = Spans(trace, names::kSpanExpand);
        EXPECT_EQ(expand.calls, s.expansions);
        EXPECT_EQ(profiler.calls(obs::Phase::kFinalize), 1u);
        EXPECT_TRUE(explain
                        .CheckReconciles(s.expansions, s.pruned_entries,
                                         s.reported_entries)
                        .ok());
        EXPECT_TRUE(heatmap
                        .CheckReconciles(s.expansions, s.pruned_entries,
                                         s.reported_entries)
                        .ok());

        if (probe) {
          SpanTotals guaranteed = Spans(trace, names::kSpanProbeGuaranteed);
          SpanTotals potential = Spans(trace, names::kSpanProbePotential);
          EXPECT_EQ(guaranteed.calls + potential.calls, s.probes);
          EXPECT_EQ(profiler.calls(obs::Phase::kBounds), s.probes);
          EXPECT_EQ(guaranteed.counts[names::kCountBoundComputations] +
                        potential.counts[names::kCountBoundComputations],
                    s.bound_computations);
          EXPECT_EQ(guaranteed.counts[names::kCountPqPops] +
                        potential.counts[names::kCountPqPops] +
                        s.entries_created,
                    s.pq_pops);
          EXPECT_EQ(profiler.calls(obs::Phase::kDescent), 1 + s.expansions);
          EXPECT_EQ(Spans(trace, names::kSpanSetup).calls, 1u);
        } else {
          SpanTotals contributions = Spans(trace, names::kSpanContributions);
          EXPECT_EQ(contributions.counts[names::kCountBoundComputations],
                    s.bound_computations);
          EXPECT_EQ(profiler.calls(obs::Phase::kMerge), contributions.calls);
          EXPECT_EQ(profiler.calls(obs::Phase::kDescent),
                    Spans(trace, names::kSpanPick).calls + s.expansions);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rst
