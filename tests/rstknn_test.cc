#include "rst/rstknn/rstknn.h"

#include <gtest/gtest.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"

namespace rst {
namespace {

/// A dataset, its IUR-tree (the precompute baseline's index) and the frozen
/// snapshot RSTkNN searches.
struct Fixture {
  Dataset dataset;
  IurTree tree;
  frozen::FrozenTree frozen;
  TextSimilarity sim;
  StScorer scorer;

  Fixture(size_t n, TextMeasure measure, double alpha, uint64_t seed)
      : tree(IurTree::Build({}, {})), sim(measure), scorer(&sim, {alpha, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.vocab_size = 200;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    tree = IurTree::BuildFromDataset(dataset, {});
    frozen = frozen::FrozenTree::Freeze(tree);
    scorer = StScorer(&sim, {alpha, dataset.max_dist()});
  }
};

struct RstknnCase {
  size_t n;
  size_t k;
  double alpha;
  TextMeasure measure;
};

class RstknnParamTest : public ::testing::TestWithParam<RstknnCase> {};

TEST_P(RstknnParamTest, BranchAndBoundMatchesBruteForce) {
  const RstknnCase& param = GetParam();
  Fixture f(param.n, param.measure, param.alpha, 100 + param.n + param.k);
  RstknnSearcher searcher(&f.frozen, &f.dataset, &f.scorer);
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const ObjectId qid =
        static_cast<ObjectId>(rng.UniformInt(uint64_t{f.dataset.size()}));
    const StObject& qobj = f.dataset.object(qid);
    RstknnQuery query{qobj.loc, &qobj.doc, param.k, qid};
    const auto expected = BruteForceRstknn(f.dataset, f.scorer, query);
    const auto got = searcher.Search(query);
    EXPECT_EQ(got.answers, expected)
        << "n=" << param.n << " k=" << param.k << " alpha=" << param.alpha
        << " qid=" << qid;
    // The paper's literal contribution-list algorithm must agree exactly.
    RstknnOptions cl;
    cl.algorithm = RstknnAlgorithm::kContributionList;
    EXPECT_EQ(searcher.Search(query, cl).answers, expected)
        << "contribution-list, qid=" << qid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RstknnParamTest,
    ::testing::Values(RstknnCase{60, 1, 0.5, TextMeasure::kExtendedJaccard},
                      RstknnCase{200, 3, 0.5, TextMeasure::kExtendedJaccard},
                      RstknnCase{200, 10, 0.1, TextMeasure::kExtendedJaccard},
                      RstknnCase{200, 10, 0.9, TextMeasure::kExtendedJaccard},
                      RstknnCase{350, 5, 0.3, TextMeasure::kExtendedJaccard},
                      RstknnCase{200, 5, 0.5, TextMeasure::kCosine},
                      RstknnCase{350, 20, 0.7, TextMeasure::kCosine}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10)) + "_" +
             TextMeasureName(info.param.measure);
    });

TEST(RstknnTest, ExternalQueryObject) {
  // Query that is not part of the dataset (a new location + new text).
  Fixture f(250, TextMeasure::kExtendedJaccard, 0.5, 7);
  RstknnSearcher searcher(&f.frozen, &f.dataset, &f.scorer);
  const TermVector qdoc = TermVector::FromUnsorted(
      {{0, 0.8f}, {3, 0.5f}, {17, 1.2f}});
  RstknnQuery query{Point{50, 50}, &qdoc, 5, IurTree::kNoObject};
  EXPECT_EQ(searcher.Search(query).answers,
            BruteForceRstknn(f.dataset, f.scorer, query));
}

TEST(RstknnTest, KGreaterThanDatasetReportsAll) {
  Fixture f(40, TextMeasure::kExtendedJaccard, 0.5, 8);
  RstknnSearcher searcher(&f.frozen, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(0);
  RstknnQuery query{qobj.loc, &qobj.doc, 100, 0};
  const auto got = searcher.Search(query);
  EXPECT_EQ(got.answers.size(), 39u);  // everyone except the query itself
}

TEST(RstknnTest, ClusteredTreeAndPoliciesAgree) {
  FlickrLikeConfig config;
  config.num_objects = 400;
  config.vocab_size = 200;
  config.seed = 31;
  Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  copts.outlier_threshold = 0.1;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);

  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  const frozen::FrozenTree plain =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  const frozen::FrozenTree ciur = frozen::FrozenTree::Freeze(
      IurTree::BuildFromDataset(d, {}, &clusters.assignment));
  RstknnSearcher plain_search(&plain, &d, &scorer);
  RstknnSearcher ciur_search(&ciur, &d, &scorer);

  const StObject& qobj = d.object(123);
  RstknnQuery query{qobj.loc, &qobj.doc, 8, 123};
  const auto expected = BruteForceRstknn(d, scorer, query);
  EXPECT_EQ(plain_search.Search(query).answers, expected);
  EXPECT_EQ(ciur_search.Search(query).answers, expected);
  RstknnOptions te;
  te.expand = ExpandPolicy::kTextEntropy;
  EXPECT_EQ(ciur_search.Search(query, te).answers, expected);
}

TEST(RstknnTest, StatsArepopulated) {
  Fixture f(300, TextMeasure::kExtendedJaccard, 0.5, 13);
  RstknnSearcher searcher(&f.frozen, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(5);
  const auto result = searcher.Search({qobj.loc, &qobj.doc, 5, 5});
  EXPECT_GT(result.stats.entries_created, 0u);
  EXPECT_GT(result.stats.io.node_reads, 0u);
  EXPECT_GT(result.stats.bound_computations, 0u);
  EXPECT_GT(result.stats.pruned_entries + result.stats.reported_entries, 0u);
}

TEST(RstknnTest, PrecomputeBaselineMatchesBruteForce) {
  Fixture f(220, TextMeasure::kExtendedJaccard, 0.5, 17);
  PrecomputeBaseline baseline(&f.tree, &f.dataset, &f.scorer);
  IoStats build_io;
  baseline.Build(5, &build_io);
  EXPECT_TRUE(baseline.built());
  EXPECT_GT(build_io.TotalIos(), 0u);
  Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    const ObjectId qid =
        static_cast<ObjectId>(rng.UniformInt(uint64_t{f.dataset.size()}));
    const StObject& qobj = f.dataset.object(qid);
    RstknnQuery query{qobj.loc, &qobj.doc, 5, qid};
    EXPECT_EQ(baseline.Query(query).answers,
              BruteForceRstknn(f.dataset, f.scorer, query))
        << "qid=" << qid;
  }
  // External query object as well.
  const TermVector qdoc = TermVector::FromUnsorted({{1, 1.0f}, {9, 0.4f}});
  RstknnQuery query{Point{10, 20}, &qdoc, 5, IurTree::kNoObject};
  EXPECT_EQ(baseline.Query(query).answers,
            BruteForceRstknn(f.dataset, f.scorer, query));
}

TEST(RstknnTest, AnswersSortedAndUnique) {
  Fixture f(300, TextMeasure::kExtendedJaccard, 0.2, 23);
  RstknnSearcher searcher(&f.frozen, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(77);
  const auto got = searcher.Search({qobj.loc, &qobj.doc, 10, 77});
  for (size_t i = 1; i < got.answers.size(); ++i) {
    EXPECT_LT(got.answers[i - 1], got.answers[i]);
  }
  for (ObjectId id : got.answers) EXPECT_NE(id, 77u);
}

}  // namespace
}  // namespace rst
