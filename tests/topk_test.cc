#include "rst/topk/topk.h"

#include <gtest/gtest.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"

namespace rst {
namespace {

struct TopKCase {
  TextMeasure measure;
  Weighting weighting;
  double alpha;
};

class TopKParamTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKParamTest, MatchesBruteForce) {
  const TopKCase& param = GetParam();
  FlickrLikeConfig config;
  config.num_objects = 1500;
  config.vocab_size = 400;
  const Dataset d = GenFlickrLike(config, {param.weighting, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(param.measure, &d.corpus_max());
  StScorer scorer(&sim, {param.alpha, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);

  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    TopKQuery q;
    const StObject& query_obj = d.object(
        static_cast<ObjectId>(rng.UniformInt(uint64_t{d.size()})));
    q.loc = query_obj.loc;
    q.doc = &query_obj.doc;
    for (size_t k : {1u, 5u, 20u}) {
      q.k = k;
      const auto expected = BruteForceTopK(d, scorer, q);
      const auto got = searcher.Search(q);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " pos=" << i;
        EXPECT_DOUBLE_EQ(got[i].score, expected[i].score);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TopKParamTest,
    ::testing::Values(
        TopKCase{TextMeasure::kExtendedJaccard, Weighting::kTfIdf, 0.5},
        TopKCase{TextMeasure::kExtendedJaccard, Weighting::kTfIdf, 0.9},
        TopKCase{TextMeasure::kCosine, Weighting::kTfIdf, 0.3},
        TopKCase{TextMeasure::kSum, Weighting::kLanguageModel, 0.5},
        TopKCase{TextMeasure::kSum, Weighting::kBinary, 0.1}),
    [](const auto& info) {
      return std::string(TextMeasureName(info.param.measure)) + "_" +
             WeightingName(info.param.weighting) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10));
    });

TEST(TopKTest, UserKeywordQueriesMatchBruteForce) {
  // The bichromatic usage: users with keyword sets, LM-weighted objects.
  FlickrLikeConfig config;
  config.num_objects = 2000;
  const Dataset d = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
  const GeneratedUsers gen = GenUsers(d, {});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kSum, &d.corpus_max());
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  for (size_t u = 0; u < 10; ++u) {
    TopKQuery q;
    q.loc = gen.users[u].loc;
    q.doc = &gen.users[u].keywords;
    q.k = 10;
    EXPECT_EQ(searcher.Search(q),
              BruteForceTopK(d, scorer, q));
  }
}

TEST(TopKTest, ExclusionRemovesSelf) {
  FlickrLikeConfig config;
  config.num_objects = 500;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(42);
  TopKQuery q{obj.loc, &obj.doc, 5, 42};
  const auto got = searcher.Search(q);
  ASSERT_EQ(got.size(), 5u);
  for (const TopKResult& r : got) EXPECT_NE(r.id, 42u);
  EXPECT_EQ(got, BruteForceTopK(d, scorer, q));
  // Without exclusion, the object itself ranks first with the top score.
  q.exclude = IurTree::kNoObject;
  const auto with_self = searcher.Search(q);
  EXPECT_EQ(with_self[0].id, 42u);
}

TEST(TopKTest, KLargerThanDataset) {
  FlickrLikeConfig config;
  config.num_objects = 20;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(0);
  TopKQuery q{obj.loc, &obj.doc, 100, IurTree::kNoObject};
  EXPECT_EQ(searcher.Search(q).size(), 20u);
  q.k = 0;
  EXPECT_TRUE(searcher.Search(q).empty());
}

TEST(TopKTest, ClusteredTreeSameAnswersLowerOrEqualWork) {
  FlickrLikeConfig config;
  config.num_objects = 2000;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 8;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const IurTree plain = IurTree::BuildFromDataset(d, {});
  const IurTree ciur = IurTree::BuildFromDataset(d, {}, &clusters.assignment);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.3, d.max_dist()});
  TopKSearcher plain_search(&plain, &d, &scorer);
  TopKSearcher ciur_search(&ciur, &d, &scorer);
  for (ObjectId id : {7u, 99u, 1234u}) {
    const StObject& obj = d.object(id);
    TopKQuery q{obj.loc, &obj.doc, 10, IurTree::kNoObject};
    IoStats plain_io, ciur_io;
    const auto a = plain_search.Search(q, &plain_io);
    const auto b = ciur_search.Search(q, &ciur_io);
    EXPECT_EQ(a, b);
    EXPECT_GT(plain_io.TotalIos(), 0u);
  }
}

TEST(TopKTest, IoGrowsWithK) {
  FlickrLikeConfig config;
  config.num_objects = 3000;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(17);
  IoStats io_small, io_large;
  searcher.Search({obj.loc, &obj.doc, 1, IurTree::kNoObject}, &io_small);
  searcher.Search({obj.loc, &obj.doc, 100, IurTree::kNoObject}, &io_large);
  EXPECT_LE(io_small.TotalIos(), io_large.TotalIos());
}

}  // namespace
}  // namespace rst
