// rst::shard scatter-gather: the determinism contract (sharded answers are
// byte-identical to a single-index search at any shard count and thread
// count), shard-level triage accounting, snapshot round-trips, and the
// journal's shard-count provenance.

#include "rst/shard/sharded_index.h"
#include "rst/shard/sharded_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/data/generators.h"
#include "rst/exec/sharded_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<uint32_t> cluster_of;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;
  IurTreeOptions topts;

  explicit Fixture(size_t n, bool clustered = false, uint64_t seed = 7)
      : tree(IurTree::Build({}, {})), sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.vocab_size = 200;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    if (clustered) {
      std::vector<TermVector> docs;
      for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
      ClusteringOptions copts;
      copts.num_clusters = 6;
      copts.outlier_threshold = 0.1;
      cluster_of = ClusterDocuments(docs, copts).assignment;
    }
    topts.max_entries = 8;
    topts.min_entries = 4;
    tree = IurTree::BuildFromDataset(dataset, topts,
                                     clustered ? &cluster_of : nullptr);
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }

  shard::ShardedIndex BuildSharded(size_t num_shards) const {
    shard::ShardOptions options;
    options.num_shards = num_shards;
    options.tree = topts;
    return shard::ShardedIndex::Build(
        dataset, options, cluster_of.empty() ? nullptr : &cluster_of);
  }

  RstknnQuery SelfQuery(ObjectId id, size_t k) const {
    const StObject& o = dataset.object(id);
    return {o.loc, &o.doc, k, id};
  }
};

Dataset TinyDataset(std::vector<std::pair<Point, std::vector<TermId>>> rows) {
  Dataset d;
  for (auto& [loc, terms] : rows) {
    d.Add(loc, RawDocument::FromTokens(terms));
  }
  d.Finalize({Weighting::kTfIdf, 0.1});
  return d;
}

// The acceptance property: for every combination of algorithm, tree flavor,
// shard count and thread count, the sharded answers equal the single-index
// answers exactly. The single-index result is the reference; the answer set
// is a property of the dataset, so every configuration must agree.
TEST(ShardTest, DeterminismMatrix) {
  for (const bool clustered : {false, true}) {
    const Fixture fx(240, clustered);
    const frozen::FrozenTree single = frozen::FrozenTree::Freeze(fx.tree);
    const RstknnSearcher reference(&single, &fx.dataset, &fx.scorer);
    for (const RstknnAlgorithm algo :
         {RstknnAlgorithm::kProbe, RstknnAlgorithm::kContributionList}) {
      RstknnOptions options;
      options.algorithm = algo;
      options.publish_metrics = false;
      std::vector<RstknnQuery> queries;
      for (ObjectId id = 0; id < 240; id += 17) {
        queries.push_back(fx.SelfQuery(id, 4));
      }
      std::vector<std::vector<ObjectId>> expected;
      for (const RstknnQuery& q : queries) {
        expected.push_back(reference.Search(q, options).answers);
      }
      for (const size_t num_shards : {1u, 4u}) {
        const shard::ShardedIndex index = fx.BuildSharded(num_shards);
        const shard::ShardedSearcher searcher(&index, &fx.dataset,
                                              &fx.scorer);
        for (const size_t threads : {1u, 8u}) {
          exec::ThreadPool pool(threads);
          for (size_t i = 0; i < queries.size(); ++i) {
            const shard::ShardedResult res =
                searcher.Search(queries[i], options, &pool);
            EXPECT_EQ(res.answers, expected[i])
                << "clustered=" << clustered << " algo=" << int(algo)
                << " shards=" << num_shards << " threads=" << threads
                << " query=" << i;
            EXPECT_EQ(res.shards.shards_pruned + res.shards.shards_reported +
                          res.shards.shards_searched,
                      num_shards);
          }
        }
      }
    }
  }
}

// A one-shard index is the unsharded frozen index, byte for byte: same STR
// bulk load over the same item list, so the serialized tree is identical.
TEST(ShardTest, SingleShardMatchesUnshardedByteForByte) {
  const Fixture fx(150);
  const shard::ShardedIndex index = fx.BuildSharded(1);
  ASSERT_EQ(index.num_shards(), 1u);
  const frozen::FrozenTree reference = frozen::FrozenTree::Freeze(fx.tree);
  EXPECT_EQ(index.shard(0).SerializeToString(),
            reference.SerializeToString());
}

// The batch runner matches the serial searcher loop result-for-result at any
// thread count, and its merged heatmap reconciles counter-exactly.
TEST(ShardTest, BatchRunnerDeterministicAndReconciled) {
  const Fixture fx(200);
  const shard::ShardedIndex index = fx.BuildSharded(4);
  const shard::ShardedSearcher searcher(&index, &fx.dataset, &fx.scorer);
  std::vector<RstknnQuery> queries;
  for (ObjectId id = 0; id < 200; id += 13) {
    queries.push_back(fx.SelfQuery(id, 5));
  }
  RstknnOptions options;
  options.publish_metrics = false;
  std::vector<std::vector<ObjectId>> expected;
  for (const RstknnQuery& q : queries) {
    expected.push_back(searcher.Search(q, options).answers);
  }
  for (const size_t threads : {1u, 3u, 8u}) {
    exec::ThreadPool pool(threads);
    exec::ShardedBatchRunner runner(&index, &fx.dataset, &fx.scorer, &pool);
    obs::HeatmapRecorder heatmap;
    runner.set_heatmap(&heatmap);
    exec::BatchStats batch_stats;
    shard::ShardedStats shard_stats;
    const std::vector<RstknnResult> results =
        runner.RunRstknn(queries, options, &batch_stats, &shard_stats);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].answers, expected[i]) << "threads=" << threads
                                                 << " query=" << i;
    }
    EXPECT_EQ(shard_stats.shards_pruned + shard_stats.shards_reported +
                  shard_stats.shards_searched,
              queries.size() * index.num_shards());
    EXPECT_EQ(heatmap.queries(), queries.size());
    EXPECT_TRUE(heatmap
                    .CheckReconciles(batch_stats.total.expansions,
                                     batch_stats.total.pruned_entries,
                                     batch_stats.total.reported_entries)
                    .ok());
  }
}

// The serial searcher's heatmap also reconciles — triage decisions bump the
// same stats counters the recorder is checked against.
TEST(ShardTest, SearcherHeatmapReconciles) {
  const Fixture fx(180);
  const shard::ShardedIndex index = fx.BuildSharded(4);
  const shard::ShardedSearcher searcher(&index, &fx.dataset, &fx.scorer);
  obs::HeatmapRecorder heatmap;
  RstknnOptions options;
  options.publish_metrics = false;
  options.heatmap = &heatmap;
  RstknnStats total;
  size_t queries = 0;
  for (ObjectId id = 0; id < 180; id += 23) {
    total.Merge(searcher.Search(fx.SelfQuery(id, 4), options).stats);
    ++queries;
  }
  heatmap.AddQueries(queries);
  EXPECT_TRUE(heatmap
                  .CheckReconciles(total.expansions, total.pruned_entries,
                                   total.reported_entries)
                  .ok());
}

// Four spatial clusters far apart, spatial-dominant scoring: a query inside
// one cluster must prune (or wholesale-decide) every foreign shard, and the
// answers still match the exhaustive oracle.
TEST(ShardTest, DistantShardsArePruned) {
  std::vector<std::pair<Point, std::vector<TermId>>> rows;
  for (int c = 0; c < 4; ++c) {
    const double cx = (c % 2) * 1000.0;
    const double cy = (c / 2) * 1000.0;
    for (int i = 0; i < 12; ++i) {
      rows.push_back({Point{cx + i * 0.25, cy + (i % 3) * 0.25},
                      {static_cast<TermId>(i % 5), 7}});
    }
  }
  Dataset dataset = TinyDataset(std::move(rows));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  // alpha 0.95: similarity is almost purely spatial, so a far shard's MaxST
  // stays below the k guaranteed competitors inside the query's own cluster.
  StScorer scorer(&sim, {0.95, dataset.max_dist()});
  shard::ShardOptions options;
  options.num_shards = 4;
  options.tree.max_entries = 8;
  options.tree.min_entries = 4;
  const shard::ShardedIndex index = shard::ShardedIndex::Build(dataset,
                                                               options);
  const shard::ShardedSearcher searcher(&index, &dataset, &scorer);
  RstknnOptions search_options;
  search_options.publish_metrics = false;
  uint64_t pruned = 0;
  for (ObjectId id = 0; id < dataset.size(); id += 7) {
    const StObject& o = dataset.object(id);
    const RstknnQuery query{o.loc, &o.doc, 3, id};
    const shard::ShardedResult res = searcher.Search(query, search_options);
    EXPECT_EQ(res.answers, BruteForceRstknn(dataset, scorer, query));
    EXPECT_EQ(res.shards.shards_searched, 1u)
        << "only the query's own cluster should need a tree search";
    pruned += res.shards.shards_pruned;
  }
  EXPECT_GT(pruned, 0u);
}

// k >= |D| makes every object an answer with no tree search at all: each
// shard's potential competitor count stays below k, so the whole forest is
// reported wholesale.
TEST(ShardTest, WholesaleReportPath) {
  const Fixture fx(24);
  const shard::ShardedIndex index = fx.BuildSharded(2);
  const shard::ShardedSearcher searcher(&index, &fx.dataset, &fx.scorer);
  RstknnOptions options;
  options.publish_metrics = false;
  const shard::ShardedResult res =
      searcher.Search(fx.SelfQuery(3, 24), options);
  std::vector<ObjectId> everyone_else;
  for (ObjectId id = 0; id < 24; ++id) {
    if (id != 3) everyone_else.push_back(id);
  }
  EXPECT_EQ(res.answers, everyone_else);
  EXPECT_EQ(res.shards.shards_reported, 2u);
  EXPECT_EQ(res.shards.shards_searched, 0u);
}

TEST(ShardTest, SaveLoadRoundTrip) {
  const Fixture fx(160);
  const shard::ShardedIndex index = fx.BuildSharded(4);
  ASSERT_TRUE(index.CheckInvariants().ok());
  const std::string dir = "shard_test_snapshot";
  ASSERT_TRUE(index.SaveDir(dir).ok());
  Result<shard::ShardedIndex> loaded = shard::ShardedIndex::LoadDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_shards(), index.num_shards());
  EXPECT_EQ(loaded.value().size(), index.size());
  EXPECT_TRUE(loaded.value().CheckInvariants().ok());
  const shard::ShardedSearcher before(&index, &fx.dataset, &fx.scorer);
  const shard::ShardedSearcher after(&loaded.value(), &fx.dataset,
                                     &fx.scorer);
  RstknnOptions options;
  options.publish_metrics = false;
  for (ObjectId id = 0; id < 160; id += 31) {
    const RstknnQuery q = fx.SelfQuery(id, 4);
    EXPECT_EQ(after.Search(q, options).answers,
              before.Search(q, options).answers);
  }
  for (size_t s = 0; s < index.num_shards(); ++s) {
    std::remove((dir + "/shard_" + std::to_string(s) + ".frz").c_str());
  }
  std::remove((dir + "/MANIFEST").c_str());
  EXPECT_FALSE(shard::ShardedIndex::LoadDir(dir).ok());
}

TEST(ShardTest, ShardCountClampedAndCoversEveryObject) {
  Dataset dataset = TinyDataset({{Point{0, 0}, {0}},
                                 {Point{1, 0}, {1}},
                                 {Point{0, 1}, {2}},
                                 {Point{1, 1}, {0, 1}},
                                 {Point{2, 2}, {2, 3}}});
  shard::ShardOptions options;
  options.num_shards = 16;  // > N: clamps to one object per shard
  const shard::ShardedIndex index = shard::ShardedIndex::Build(dataset,
                                                               options);
  EXPECT_EQ(index.num_shards(), 5u);
  EXPECT_EQ(index.size(), 5u);
  for (size_t s = 0; s < index.num_shards(); ++s) {
    EXPECT_GT(index.shard(s).size(), 0u);
  }
  EXPECT_TRUE(index.CheckInvariants().ok());
  for (ObjectId id = 0; id < 5; ++id) {
    EXPECT_LT(index.shard_of(id), index.num_shards());
  }
}

TEST(ShardTest, EmptyDatasetBuildsEmptyForest) {
  Dataset dataset = TinyDataset({});
  shard::ShardOptions options;
  options.num_shards = 4;
  const shard::ShardedIndex index = shard::ShardedIndex::Build(dataset,
                                                               options);
  EXPECT_EQ(index.num_shards(), 0u);
  EXPECT_EQ(index.size(), 0u);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, 1.0});
  const shard::ShardedSearcher searcher(&index, &dataset, &scorer);
  const TermVector qdoc = TermVector::FromTerms({1});
  RstknnOptions search_options;
  search_options.publish_metrics = false;
  const shard::ShardedResult res = searcher.Search(
      {Point{0, 0}, &qdoc, 5, IurTree::kNoObject}, search_options);
  EXPECT_TRUE(res.answers.empty());
}

// The journal header round-trips the shard count, and captures from before
// the field existed parse as shards = 0 (their `view` key is ignored).
TEST(ShardTest, JournalHeaderShardsRoundTrip) {
  const std::string path = "shard_test_journal.jsonl";
  obs::JournalHeader header;
  header.label = "rstknn.batch";
  header.algo = "probe";
  header.tree = "iur";
  header.measure = "ej";
  header.weighting = "tfidf";
  header.shards = 4;
  obs::WorkloadRecorder recorder;
  ASSERT_TRUE(recorder.Open(path, header).ok());
  obs::JournalQueryRecord record;
  record.index = 0;
  record.k = 3;
  recorder.Append(record);
  ASSERT_TRUE(recorder.Close().ok());
  Result<obs::JournalFile> loaded = obs::ReadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().header.shards, 4u);
  std::remove(path.c_str());

  // A pre-shard header line (no "shards" key, a "view" key) must still parse.
  const std::string legacy =
      "{\"type\":\"header\",\"version\":1,\"label\":\"rstknn\",\"data\":\"\","
      "\"algo\":\"probe\",\"view\":\"pointer\",\"tree\":\"iur\","
      "\"measure\":\"ej\",\"weighting\":\"tfidf\",\"alpha\":0.5,"
      "\"threads\":1,\"sample_every\":1}\n";
  ASSERT_TRUE(WriteStringToFile(path, legacy).ok());
  Result<obs::JournalFile> old = obs::ReadJournal(path);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old.value().header.shards, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rst
