// Workload capture / replay contract (DESIGN.md §14): journals round-trip
// losslessly, answer digests are byte-identical across {algorithm} × {tree} ×
// {thread count}, and the accumulated index heatmap reconciles
// counter-exactly with the summed RstknnStats.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
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
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// ---------------------------------------------------------------------------
// AnswerDigest

TEST(AnswerDigestTest, GoldenValues) {
  // FNV-1a64 offset basis: the digest of an empty answer set.
  EXPECT_EQ(obs::AnswerDigest({}), 14695981039346656037ull);
  // FNV-1a64 over the little-endian bytes 01 00 00 00.
  uint64_t expected = 14695981039346656037ull;
  for (const unsigned char b : {1, 0, 0, 0}) {
    expected = (expected ^ b) * 1099511628211ull;
  }
  EXPECT_EQ(obs::AnswerDigest({1}), expected);
}

TEST(AnswerDigestTest, SensitiveToContentAndOrder) {
  EXPECT_NE(obs::AnswerDigest({1, 2, 3}), obs::AnswerDigest({1, 2, 4}));
  EXPECT_NE(obs::AnswerDigest({1, 2, 3}), obs::AnswerDigest({1, 2}));
  // Searchers return ascending ids; the digest deliberately covers the
  // ordering so a sort regression is caught too.
  EXPECT_NE(obs::AnswerDigest({1, 2}), obs::AnswerDigest({2, 1}));
}

// ---------------------------------------------------------------------------
// WorkloadRecorder / ReadJournal round-trip

obs::JournalHeader TestHeader() {
  obs::JournalHeader header;
  header.label = "replay_test";
  header.data = "unused.tsv";
  header.algo = "probe";
  header.tree = "iur";
  header.measure = "ej";
  header.weighting = "tfidf";
  header.alpha = 0.25;
  header.threads = 3;
  return header;
}

obs::JournalQueryRecord TestRecord(uint64_t index) {
  obs::JournalQueryRecord record;
  record.index = index;
  record.x = 0.125 + static_cast<double>(index);
  record.y = -3.5;
  record.k = 7;
  record.terms = {{2, 0.5f}, {9, 1.25f}, {41, 0.1f}};
  record.wall_ms = 1.75;
  record.answer_count = 2;
  record.answer_digest = 0xDEADBEEFCAFEF00Dull + index;
  record.stats.expansions = 10 + index;
  record.stats.pruned_entries = 20;
  record.stats.reported_entries = 2;
  record.stats.probes = 33;
  return record;
}

TEST(WorkloadRecorderTest, RoundTripsHeaderAndRecords) {
  const std::string path = TempPath("rst_replay_roundtrip.jsonl");
  obs::WorkloadRecorder recorder;
  ASSERT_TRUE(recorder.Open(path, TestHeader()).ok());
  EXPECT_TRUE(recorder.is_open());
  recorder.Append(TestRecord(0));
  obs::JournalQueryRecord self_record = TestRecord(1);
  self_record.self = 42;
  self_record.terms.clear();
  recorder.Append(self_record);
  EXPECT_EQ(recorder.recorded(), 2u);
  ASSERT_TRUE(recorder.Close().ok());

  const Result<obs::JournalFile> loaded = obs::ReadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const obs::JournalFile& journal = loaded.value();
  EXPECT_EQ(journal.truncated_lines, 0u);
  EXPECT_EQ(journal.header.label, "replay_test");
  EXPECT_EQ(journal.header.algo, "probe");
  EXPECT_EQ(journal.header.tree, "iur");
  EXPECT_DOUBLE_EQ(journal.header.alpha, 0.25);
  EXPECT_EQ(journal.header.threads, 3u);
  ASSERT_EQ(journal.records.size(), 2u);

  const obs::JournalQueryRecord& r0 = journal.records[0];
  const obs::JournalQueryRecord expected = TestRecord(0);
  EXPECT_EQ(r0.index, 0u);
  EXPECT_DOUBLE_EQ(r0.x, expected.x);
  EXPECT_DOUBLE_EQ(r0.y, expected.y);
  EXPECT_EQ(r0.k, expected.k);
  EXPECT_EQ(r0.self, obs::JournalQueryRecord::kNoSelf);
  ASSERT_EQ(r0.terms.size(), 3u);
  EXPECT_EQ(r0.terms[1].first, 9u);
  // float → shortest-round-trip double → float is exact.
  EXPECT_EQ(r0.terms[1].second, 1.25f);
  EXPECT_EQ(r0.answer_digest, expected.answer_digest);
  EXPECT_EQ(r0.stats, expected.stats);
  EXPECT_EQ(journal.records[1].self, 42u);
  std::remove(path.c_str());
}

TEST(WorkloadRecorderTest, SamplesDeterministicallyByQueryIndex) {
  const std::string path = TempPath("rst_replay_sampled.jsonl");
  obs::JournalHeader header = TestHeader();
  header.sample_every = 3;
  obs::WorkloadRecorder recorder;
  ASSERT_TRUE(recorder.Open(path, header).ok());
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(recorder.ShouldSample(i), i % 3 == 0) << i;
    if (recorder.ShouldSample(i)) recorder.Append(TestRecord(i));
  }
  ASSERT_TRUE(recorder.Close().ok());

  const Result<obs::JournalFile> loaded = obs::ReadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().records.size(), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(loaded.value().header.sample_every, 3u);
  EXPECT_EQ(loaded.value().records[3].index, 9u);
  std::remove(path.c_str());
}

// Regression: is_open() used to read `file_` without taking the recorder
// mutex, racing concurrent Append/Close from worker threads (UB flagged by
// TSan; found while adding thread-safety annotations). The monitor thread
// below reproduces the load_driver pattern of polling is_open()/recorded()
// during a capture.
TEST(WorkloadRecorderTest, ConcurrentAppendAndIsOpen) {
  const std::string path = TempPath("rst_replay_concurrent.jsonl");
  obs::WorkloadRecorder recorder;
  ASSERT_TRUE(recorder.Open(path, TestHeader()).ok());

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 64;
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    // rst-atomics: acquire pairs with the release store after the writers
    // join; everything the writers did is visible once `done` reads true.
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(recorder.is_open());
      (void)recorder.recorded();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        recorder.Append(TestRecord(static_cast<uint64_t>(w) * kPerWriter + i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  // rst-atomics: release pairs with the monitor's acquire load above.
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
  ASSERT_TRUE(recorder.Close().ok());
  EXPECT_FALSE(recorder.is_open());

  const Result<obs::JournalFile> loaded = obs::ReadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().records.size(), kWriters * kPerWriter);
  std::remove(path.c_str());
}

TEST(ReadJournalTest, ToleratesTornTrailingLine) {
  const std::string path = TempPath("rst_replay_torn.jsonl");
  obs::WorkloadRecorder recorder;
  ASSERT_TRUE(recorder.Open(path, TestHeader()).ok());
  recorder.Append(TestRecord(0));
  ASSERT_TRUE(recorder.Close().ok());
  // Simulate a crash mid-write: a record cut off without its newline.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"type\":\"query\",\"index\":1,\"x\":0.", f);
  std::fclose(f);

  const Result<obs::JournalFile> loaded = obs::ReadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().records.size(), 1u);
  EXPECT_EQ(loaded.value().truncated_lines, 1u);
  std::remove(path.c_str());
}

TEST(ReadJournalTest, RejectsRecordBeforeHeader) {
  const std::string path = TempPath("rst_replay_headerless.jsonl");
  ASSERT_TRUE(WriteStringToFile(
                  path, "{\"type\":\"query\",\"index\":0,\"x\":1,\"y\":2,"
                        "\"k\":3,\"wall_ms\":0,\"answer_count\":0,"
                        "\"answer_digest\":\"0000000000000000\","
                        "\"terms\":[],\"stats\":{}}\n")
                  .ok());
  EXPECT_FALSE(obs::ReadJournal(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HeatmapRecorder

TEST(HeatmapRecorderTest, TalliesVerdictsAndBounds) {
  obs::HeatmapRecorder heatmap;
  heatmap.Record(1, 2, obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone,
                 0);
  heatmap.Record(1, 2, obs::ExplainVerdict::kPrune,
                 obs::ExplainBound::kLowerBound, 12);
  heatmap.Record(5, 1, obs::ExplainVerdict::kReportHit,
                 obs::ExplainBound::kUpperBound, 4);
  heatmap.Record(9, 0, obs::ExplainVerdict::kReportMiss,
                 obs::ExplainBound::kExact, 1);
  heatmap.AddQueries(1);

  EXPECT_EQ(heatmap.decisions(), 4u);
  ASSERT_EQ(heatmap.nodes().size(), 3u);
  const obs::HeatmapNodeCounters& node1 = heatmap.nodes().at(1);
  EXPECT_EQ(node1.level, 2u);
  EXPECT_EQ(node1.visits, 2u);
  EXPECT_EQ(node1.expanded, 1u);
  EXPECT_EQ(node1.pruned, 1u);
  EXPECT_EQ(node1.objects_pruned, 12u);
  EXPECT_EQ(node1.lower_bound_fires, 1u);
  EXPECT_EQ(heatmap.totals().objects_reported, 4u);
  // kReportMiss counts as a conclusive non-answer: its object lands in
  // objects_pruned, mirroring RstknnStats::pruned_entries.
  EXPECT_EQ(heatmap.totals().objects_pruned, 13u);
  EXPECT_EQ(heatmap.totals().upper_bound_fires, 1u);
  EXPECT_EQ(heatmap.totals().exact_fires, 1u);

  // expansions=1, pruned=1(+miss 1)=2, reported=1.
  EXPECT_TRUE(heatmap.CheckReconciles(1, 2, 1).ok());
  const Status off = heatmap.CheckReconciles(1, 2, 2);
  EXPECT_FALSE(off.ok());
  EXPECT_NE(off.ToString().find("reconcile"), std::string::npos);
}

TEST(HeatmapRecorderTest, MergeSumsPerNodeAndResetClears) {
  obs::HeatmapRecorder a;
  a.Record(3, 1, obs::ExplainVerdict::kPrune, obs::ExplainBound::kLowerBound,
           5);
  a.AddQueries(2);
  obs::HeatmapRecorder b;
  b.Record(3, 1, obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
  b.Record(7, 0, obs::ExplainVerdict::kReportHit,
           obs::ExplainBound::kUpperBound, 2);
  b.AddQueries(1);

  a.Merge(b);
  EXPECT_EQ(a.queries(), 3u);
  EXPECT_EQ(a.decisions(), 3u);
  EXPECT_EQ(a.nodes().at(3).visits, 2u);
  EXPECT_EQ(a.nodes().at(7).objects_reported, 2u);
  // One expansion, one pruned subtree (5 objects, but the stats counter is
  // per decided entry), one reported subtree.
  EXPECT_TRUE(a.CheckReconciles(1, 1, 1).ok());

  a.Reset();
  EXPECT_EQ(a.queries(), 0u);
  EXPECT_EQ(a.decisions(), 0u);
  EXPECT_TRUE(a.nodes().empty());
}

TEST(HeatmapRecorderTest, JsonExportParsesAndTruncatesToHottest) {
  obs::HeatmapRecorder heatmap;
  for (uint64_t id = 1; id <= 5; ++id) {
    for (uint64_t v = 0; v < id; ++v) {
      heatmap.Record(id, 1, obs::ExplainVerdict::kExpand,
                     obs::ExplainBound::kNone, 0);
    }
  }
  heatmap.AddQueries(1);

  const Result<obs::JsonValue> full = obs::JsonValue::Parse(heatmap.ToJson());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().Get("nodes")->AsArray().size(), 5u);

  const Result<obs::JsonValue> top =
      obs::JsonValue::Parse(heatmap.ToJson(/*max_nodes=*/2));
  ASSERT_TRUE(top.ok());
  const auto& nodes = top.value().Get("nodes")->AsArray();
  ASSERT_EQ(nodes.size(), 2u);
  // Hottest two by visits are ids 5 and 4, re-sorted ascending by id.
  EXPECT_EQ(nodes[0].Get("id")->AsUint(), 4u);
  EXPECT_EQ(nodes[1].Get("id")->AsUint(), 5u);
  EXPECT_EQ(top.value().Get("nodes_dropped")->AsUint(), 3u);
}

// ---------------------------------------------------------------------------
// The capture matrix: {algorithm} × {IUR, CIUR} × {1, 8 threads} — every
// combination must produce the serial reference's
// answer digests and a heatmap that reconciles exactly with its own summed
// stats.

struct ReplayFixture {
  Dataset dataset;
  std::vector<uint32_t> clusters;
  frozen::FrozenTree frozen_iur;
  frozen::FrozenTree frozen_ciur;
  TextSimilarity sim;
  StScorer scorer;

  ReplayFixture()
      : sim(TextMeasure::kExtendedJaccard), scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = 300;
    config.vocab_size = 150;
    config.seed = 19;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 5;
    clusters = ClusterDocuments(docs, copts).assignment;
    frozen_iur =
        frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));
    frozen_ciur = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, {}, &clusters));
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }

  std::vector<RstknnQuery> Queries(size_t count, size_t k) const {
    std::vector<RstknnQuery> queries;
    queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const ObjectId qid = static_cast<ObjectId>((i * 41) % dataset.size());
      const StObject& q = dataset.object(qid);
      queries.push_back({q.loc, &q.doc, k, qid});
    }
    return queries;
  }
};

TEST(ReplayMatrixTest, DigestsAndHeatmapsInvariantAcrossExecutions) {
  const ReplayFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(12, 5);

  for (const bool clustered : {false, true}) {
    const frozen::FrozenTree& tree = clustered ? f.frozen_ciur : f.frozen_iur;
    for (RstknnAlgorithm algorithm :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      RstknnOptions options;
      options.algorithm = algorithm;
      options.publish_metrics = false;

      // Serial reference.
      const RstknnSearcher searcher(&tree, &f.dataset, &f.scorer);
      std::vector<uint64_t> reference;
      RstknnStats reference_total;
      for (const RstknnQuery& q : queries) {
        const RstknnResult r = searcher.Search(q, options);
        reference.push_back(obs::AnswerDigest(r.answers));
        reference_total.Merge(r.stats);
      }

      for (size_t threads : {1u, 8u}) {
        SCOPED_TRACE("clustered=" + std::to_string(clustered) +
                     " algo=" + std::to_string(static_cast<int>(algorithm)) +
                     " threads=" + std::to_string(threads));
        exec::ThreadPool pool(threads);
        exec::BatchRunner runner(&tree, &f.dataset, &f.scorer, &pool);
        obs::HeatmapRecorder heatmap;
        runner.set_heatmap(&heatmap);

        const std::string path = TempPath("rst_replay_matrix.jsonl");
        obs::WorkloadRecorder journal;
        ASSERT_TRUE(journal.Open(path, TestHeader()).ok());
        runner.set_journal(&journal);

        const std::vector<RstknnResult> results =
            runner.RunRstknn(queries, options);
        ASSERT_TRUE(journal.Close().ok());
        ASSERT_EQ(results.size(), queries.size());

        RstknnStats total;
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(obs::AnswerDigest(results[i].answers), reference[i])
              << "query " << i;
          total.Merge(results[i].stats);
        }
        EXPECT_EQ(total.expansions, reference_total.expansions);
        EXPECT_EQ(total.pruned_entries, reference_total.pruned_entries);
        EXPECT_EQ(total.reported_entries, reference_total.reported_entries);

        // The heatmap must reconcile exactly with this run's own stats.
        EXPECT_EQ(heatmap.queries(), queries.size());
        const Status reconciled = heatmap.CheckReconciles(
            total.expansions, total.pruned_entries, total.reported_entries);
        EXPECT_TRUE(reconciled.ok()) << reconciled.ToString();

        // The journal captured every query with the reference digests.
        const Result<obs::JournalFile> loaded = obs::ReadJournal(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        ASSERT_EQ(loaded.value().records.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(loaded.value().records[i].answer_digest, reference[i]);
          EXPECT_EQ(loaded.value().records[i].self, queries[i].self);
        }
        std::remove(path.c_str());
      }
    }
  }
}

/// The heatmap keys on explain preorder ids, a function of tree structure
/// alone — so the accumulated per-node counters of a serial loop and of
/// batches at any thread count must be identical, not just the totals.
TEST(ReplayMatrixTest, HeatmapNodesIdenticalAcrossThreadCounts) {
  const ReplayFixture f;
  const std::vector<RstknnQuery> queries = f.Queries(8, 4);
  RstknnOptions options;
  options.publish_metrics = false;

  std::map<std::string, std::string> heatmaps;
  {
    const RstknnSearcher searcher(&f.frozen_iur, &f.dataset, &f.scorer);
    obs::HeatmapRecorder heatmap;
    RstknnOptions serial = options;
    serial.heatmap = &heatmap;
    for (const RstknnQuery& q : queries) searcher.Search(q, serial);
    heatmap.AddQueries(queries.size());
    heatmaps["serial"] = heatmap.ToJson();
  }
  for (size_t threads : {1u, 8u}) {
    exec::ThreadPool pool(threads);
    exec::BatchRunner runner(&f.frozen_iur, &f.dataset, &f.scorer, &pool);
    obs::HeatmapRecorder heatmap;
    runner.set_heatmap(&heatmap);
    runner.RunRstknn(queries, options);
    heatmaps["batch/" + std::to_string(threads)] = heatmap.ToJson();
  }
  ASSERT_EQ(heatmaps.size(), 3u);
  for (const auto& [key, json] : heatmaps) {
    EXPECT_EQ(json, heatmaps.begin()->second) << key;
  }
}

}  // namespace
}  // namespace rst
