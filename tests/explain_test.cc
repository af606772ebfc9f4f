#include "rst/obs/explain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/metrics.h"
#include "rst/obs/slow_log.h"
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

  EXPECT_EQ(recorder.pruned(), 1u);
  EXPECT_EQ(recorder.expanded(), 1u);
  EXPECT_EQ(recorder.reported_hit(), 1u);
  EXPECT_EQ(recorder.reported_miss(), 0u);
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

  ExplainFixture()
      : tree(IurTree::Build({}, {})),
        ciur(IurTree::Build({}, {})),
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = 400;
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
        for (const obs::ExplainLevelSummary& level : recorder.levels()) {
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

      // Batched runs: threshold 0 captures every query's explain JSON, keyed
      // by query_index; any thread count must reproduce the serial bytes.
      for (size_t threads : {1u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::BatchRunner runner(tree, &f.dataset, &f.scorer, &pool);
        obs::SlowQueryLog slow_log(/*threshold_ms=*/0.0,
                                   /*capacity=*/kQueries);
        runner.set_slow_log(&slow_log);
        RstknnOptions batch_options;
        batch_options.algorithm = algorithm;
        runner.RunRstknn(queries, batch_options);

        const std::vector<obs::SlowQueryRecord> records = slow_log.Snapshot();
        ASSERT_EQ(records.size(), queries.size()) << "threads=" << threads;
        size_t matched = 0;
        for (const obs::SlowQueryRecord& record : records) {
          ASSERT_LT(record.query_index, reference.size());
          EXPECT_EQ(record.explain_json, reference[record.query_index])
              << "threads=" << threads << " query=" << record.query_index;
          EXPECT_EQ(record.label, "rstknn.batch");
          EXPECT_FALSE(record.trace_json.empty());
          ++matched;
        }
        EXPECT_EQ(matched, queries.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SlowQueryLog

TEST(SlowQueryLogTest, ThresholdGatesCapture) {
  obs::SlowQueryLog log(/*threshold_ms=*/5.0, /*capacity=*/4);
  EXPECT_FALSE(log.ShouldCapture(4.999));
  EXPECT_TRUE(log.ShouldCapture(5.0));
  EXPECT_TRUE(log.ShouldCapture(100.0));
  EXPECT_EQ(log.threshold_ms(), 5.0);
}

TEST(SlowQueryLogTest, RingKeepsNewestRecordsOldestFirst) {
  obs::SlowQueryLog log(/*threshold_ms=*/0.0, /*capacity=*/4);
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  for (uint64_t i = 0; i < 10; ++i) {
    obs::SlowQueryRecord record;
    record.query_index = i;
    record.label = "test";
    record.elapsed_ms = static_cast<double>(i);
    EXPECT_TRUE(log.Insert(std::move(record)));
  }
  EXPECT_EQ(log.captured(), 10u);
  EXPECT_EQ(log.dropped(), 0u);

  const std::vector<obs::SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].query_index, 6 + i);  // newest 4, oldest first
    EXPECT_EQ(records[i].seq, 6 + i);
    if (i > 0) EXPECT_GT(records[i].seq, records[i - 1].seq);
  }

  // Every capture lands on the global (timing-derived, never gated) counter.
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("exec.slow_queries"), 10u);

  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"captured\":10"), std::string::npos);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
}

TEST(SlowQueryLogTest, CapacityIsClampedToOne) {
  obs::SlowQueryLog log(/*threshold_ms=*/0.0, /*capacity=*/0);
  EXPECT_EQ(log.capacity(), 1u);
  obs::SlowQueryRecord a;
  a.label = "first";
  obs::SlowQueryRecord b;
  b.label = "second";
  EXPECT_TRUE(log.Insert(std::move(a)));
  EXPECT_TRUE(log.Insert(std::move(b)));
  const std::vector<obs::SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "second");
}

}  // namespace
}  // namespace rst
