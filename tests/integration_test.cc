// Cross-module integration tests: every algorithm variant must agree with
// its oracle end-to-end on a shared mid-size world, datasets must survive a
// save/load round trip with bit-identical query results, and the index
// storage must decode back to the in-memory structures.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "rst/data/csv.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/maxbrst/miur.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FlickrLikeConfig config;
    config.num_objects = 1500;
    config.vocab_size = 350;
    config.seed = 77;
    dataset_ = std::make_unique<Dataset>(
        GenFlickrLike(config, {Weighting::kTfIdf, 0.1}));
    std::vector<TermVector> docs;
    for (const StObject& o : dataset_->objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 6;
    clusters_ =
        std::make_unique<ClusteringResult>(ClusterDocuments(docs, copts));
    iur_ = std::make_unique<IurTree>(IurTree::BuildFromDataset(*dataset_, {}));
    ciur_ = std::make_unique<IurTree>(
        IurTree::BuildFromDataset(*dataset_, {}, &clusters_->assignment));
    frozen_iur_ =
        std::make_unique<frozen::FrozenTree>(frozen::FrozenTree::Freeze(*iur_));
    frozen_ciur_ = std::make_unique<frozen::FrozenTree>(
        frozen::FrozenTree::Freeze(*ciur_));
  }
  static void TearDownTestSuite() {
    frozen_ciur_.reset();
    frozen_iur_.reset();
    ciur_.reset();
    iur_.reset();
    clusters_.reset();
    dataset_.reset();
  }

  static std::unique_ptr<Dataset> dataset_;
  static std::unique_ptr<ClusteringResult> clusters_;
  static std::unique_ptr<IurTree> iur_;
  static std::unique_ptr<IurTree> ciur_;
  /// The snapshots RSTkNN searches.
  static std::unique_ptr<frozen::FrozenTree> frozen_iur_;
  static std::unique_ptr<frozen::FrozenTree> frozen_ciur_;
};

std::unique_ptr<Dataset> IntegrationTest::dataset_;
std::unique_ptr<ClusteringResult> IntegrationTest::clusters_;
std::unique_ptr<IurTree> IntegrationTest::iur_;
std::unique_ptr<IurTree> IntegrationTest::ciur_;
std::unique_ptr<frozen::FrozenTree> IntegrationTest::frozen_iur_;
std::unique_ptr<frozen::FrozenTree> IntegrationTest::frozen_ciur_;

TEST_F(IntegrationTest, AllRstknnVariantsAgreeWithOracle) {
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  for (double alpha : {0.2, 0.8}) {
    StScorer scorer(&sim, {alpha, dataset_->max_dist()});
    RstknnSearcher on_iur(frozen_iur_.get(), dataset_.get(), &scorer);
    RstknnSearcher on_ciur(frozen_ciur_.get(), dataset_.get(), &scorer);
    PrecomputeBaseline baseline(iur_.get(), dataset_.get(), &scorer);
    baseline.Build(7);
    for (ObjectId qid : {3u, 444u, 1200u}) {
      const StObject& q = dataset_->object(qid);
      const RstknnQuery query{q.loc, &q.doc, 7, qid};
      const auto oracle = BruteForceRstknn(*dataset_, scorer, query);
      EXPECT_EQ(on_iur.Search(query).answers, oracle) << "alpha=" << alpha;
      EXPECT_EQ(on_ciur.Search(query).answers, oracle) << "alpha=" << alpha;
      RstknnOptions te;
      te.expand = ExpandPolicy::kTextEntropy;
      EXPECT_EQ(on_ciur.Search(query, te).answers, oracle);
      EXPECT_EQ(baseline.Query(query).answers, oracle);
    }
  }
}

TEST_F(IntegrationTest, NaiveAndTightEjBoundsAgree) {
  TextSimilarity tight(TextMeasure::kExtendedJaccard, nullptr,
                       EjBoundMode::kCauchySchwarz);
  TextSimilarity naive(TextMeasure::kExtendedJaccard, nullptr,
                       EjBoundMode::kNaive);
  StScorer tight_scorer(&tight, {0.5, dataset_->max_dist()});
  StScorer naive_scorer(&naive, {0.5, dataset_->max_dist()});
  RstknnSearcher tight_search(frozen_iur_.get(), dataset_.get(),
                              &tight_scorer);
  RstknnSearcher naive_search(frozen_iur_.get(), dataset_.get(),
                              &naive_scorer);
  const StObject& q = dataset_->object(99);
  const RstknnQuery query{q.loc, &q.doc, 5, 99};
  const auto a = tight_search.Search(query);
  const auto b = naive_search.Search(query);
  EXPECT_EQ(a.answers, b.answers);
  // The tightened bound must not do more work.
  EXPECT_LE(a.stats.bound_computations, b.stats.bound_computations);
}

TEST_F(IntegrationTest, FullBichromaticPipelineAgrees) {
  UserGenConfig ucfg;
  ucfg.num_users = 60;
  ucfg.area_extent = 30.0;
  ucfg.seed = 5;
  const GeneratedUsers gen = GenUsers(*dataset_, ucfg);
  TextSimilarity sim(TextMeasure::kSum, &dataset_->corpus_max());
  StScorer scorer(&sim, {0.5, dataset_->max_dist()});

  JointTopKProcessor proc(iur_.get(), dataset_.get(), &scorer);
  const JointTopKResult joint = proc.Process(gen.users, 8);

  MaxBrstQuery query;
  query.locations = GenCandidateLocations(gen.area, 6, 5);
  query.keywords = gen.candidate_keywords;
  query.ws = 2;
  query.k = 8;

  MaxBrstSolver solver(dataset_.get(), &scorer);
  const MaxBrstResult exact =
      solver.Solve(gen.users, joint.rsk, query, KeywordSelect::kExact);
  const MaxBrstResult oracle =
      BruteForceMaxBrst(gen.users, joint.rsk, *dataset_, scorer, query);
  EXPECT_EQ(exact.coverage(), oracle.coverage());

  IurTreeOptions uopts;
  uopts.max_entries = 8;
  uopts.min_entries = 3;
  const IurTree user_tree = IurTree::BuildFromUsers(gen.users, uopts);
  MiurMaxBrstSolver miur(iur_.get(), dataset_.get(), &scorer, &user_tree, &gen.users);
  EXPECT_EQ(miur.Solve(query, KeywordSelect::kExact).best.coverage(),
            oracle.coverage());
}

TEST_F(IntegrationTest, DatasetRoundTripPreservesQueryResults) {
  const std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(SaveDatasetIds(*dataset_, path).ok());
  auto loaded = LoadDatasetIds(path, dataset_->weighting());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), dataset_->size());
  const frozen::FrozenTree tree2 = frozen::FrozenTree::Freeze(
      IurTree::BuildFromDataset(loaded.value(), {}));

  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer1(&sim, {0.5, dataset_->max_dist()});
  StScorer scorer2(&sim, {0.5, loaded.value().max_dist()});
  RstknnSearcher s1(frozen_iur_.get(), dataset_.get(), &scorer1);
  RstknnSearcher s2(&tree2, &loaded.value(), &scorer2);
  const StObject& q = dataset_->object(17);
  EXPECT_EQ(s1.Search({q.loc, &q.doc, 5, 17}).answers,
            s2.Search({q.loc, &q.doc, 5, 17}).answers);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, QueriesAreDeterministic) {
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, dataset_->max_dist()});
  RstknnSearcher searcher(frozen_iur_.get(), dataset_.get(), &scorer);
  const StObject& q = dataset_->object(250);
  const RstknnQuery query{q.loc, &q.doc, 9, 250};
  const auto a = searcher.Search(query);
  const auto b = searcher.Search(query);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.stats.entries_created, b.stats.entries_created);
  EXPECT_EQ(a.stats.io.TotalIos(), b.stats.io.TotalIos());
}

TEST_F(IntegrationTest, StoredNodeRecordsHaveHonestSizes) {
  // Every node's serialized record + inverted file must be readable from the
  // page store and the index total must equal the sum of the parts.
  uint64_t total = 0;
  std::vector<const IurTree::Node*> stack = {iur_->root()};
  while (!stack.empty()) {
    const IurTree::Node* node = stack.back();
    stack.pop_back();
    std::string payload;
    ASSERT_TRUE(
        iur_->page_store().Read(node->record_handle, &payload, nullptr).ok());
    total += payload.size();
    ASSERT_TRUE(
        iur_->page_store().Read(node->invfile_handle, &payload, nullptr).ok());
    size_t offset = 0;
    InvertedFile file;
    ASSERT_TRUE(DecodeInvertedFile(payload, &offset, &file).ok());
    total += payload.size();
    if (!node->leaf) {
      for (const IurTree::Entry& e : node->entries) {
        stack.push_back(e.child);
      }
    }
  }
  EXPECT_EQ(total, iur_->IndexBytes());
}

}  // namespace
}  // namespace rst
