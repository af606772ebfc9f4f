#include "rst/maxbrst/joint_topk.h"

#include <gtest/gtest.h>

#include "rst/data/generators.h"

namespace rst {
namespace {

struct JointFixture {
  Dataset dataset;
  GeneratedUsers gen;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;

  JointFixture(size_t num_objects, size_t num_users, Weighting weighting,
               double alpha, uint64_t seed = 1,
               TextMeasure measure = TextMeasure::kSum)
      : tree(IurTree::Build({}, {})),
        // Placeholder measure: kSum requires corpus-max normalizers, which
        // exist only after the dataset is generated in the body (reassigned
        // there). EJ keeps the pre-init state assert-clean in Debug builds.
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {alpha, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = num_objects;
    config.vocab_size = 400;
    config.seed = seed;
    dataset = GenFlickrLike(config, {weighting, 0.1});
    UserGenConfig ucfg;
    ucfg.num_users = num_users;
    ucfg.area_extent = 25.0;
    ucfg.seed = seed + 5;
    gen = GenUsers(dataset, ucfg);
    tree = IurTree::BuildFromDataset(dataset, {});
    sim = TextSimilarity(measure, &dataset.corpus_max());
    scorer = StScorer(&sim, {alpha, dataset.max_dist()});
  }
};

TEST(SuperUserTest, AggregatesUsers) {
  std::vector<StUser> users(3);
  users[0] = {0, Point{0, 0}, TermVector::FromTerms({1, 2})};
  users[1] = {1, Point{4, 2}, TermVector::FromTerms({2, 3})};
  users[2] = {2, Point{2, 6}, TermVector::FromTerms({2})};
  const SuperUser su = SuperUser::FromUsers(users);
  EXPECT_EQ(su.mbr, Rect::FromCorners(0, 0, 4, 6));
  EXPECT_EQ(su.keywords.count, 3u);
  // Union = {1,2,3}; intersection = {2}.
  EXPECT_EQ(su.keywords.uni.size(), 3u);
  ASSERT_EQ(su.keywords.intr.size(), 1u);
  EXPECT_TRUE(su.keywords.intr.Contains(2));
}

class JointWeightingTest : public ::testing::TestWithParam<Weighting> {};

TEST_P(JointWeightingTest, JointMatchesBruteForcePerUser) {
  JointFixture f(2500, 60, GetParam(), 0.5);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const size_t k = 10;
  const JointTopKResult joint = proc.Process(f.gen.users, k);
  for (const StUser& u : f.gen.users) {
    TopKQuery q{u.loc, &u.keywords, k, IurTree::kNoObject};
    const auto expected = BruteForceTopK(f.dataset, f.scorer, q);
    ASSERT_EQ(joint.per_user[u.id].size(), expected.size()) << "u=" << u.id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(joint.per_user[u.id][i].id, expected[i].id)
          << "u=" << u.id << " pos=" << i;
      EXPECT_DOUBLE_EQ(joint.per_user[u.id][i].score, expected[i].score);
    }
    EXPECT_DOUBLE_EQ(joint.rsk[u.id], expected.back().score);
  }
}

INSTANTIATE_TEST_SUITE_P(Weightings, JointWeightingTest,
                         ::testing::Values(Weighting::kLanguageModel,
                                           Weighting::kTfIdf,
                                           Weighting::kBinary),
                         [](const auto& info) {
                           return WeightingName(info.param);
                         });

/// Exact equality (ids, scores and RS_k) of the joint result with the
/// per-user brute force and with the per-user baseline search.
void ExpectExact(const JointFixture& f, const std::vector<StUser>& users,
                 size_t k) {
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const JointTopKResult joint = proc.Process(users, k);
  const JointTopKResult baseline = proc.BaselinePerUser(users, k);
  for (const StUser& u : users) {
    TopKQuery q{u.loc, &u.keywords, k, IurTree::kNoObject};
    const auto expected = BruteForceTopK(f.dataset, f.scorer, q);
    ASSERT_EQ(joint.per_user[u.id].size(), expected.size()) << "u=" << u.id;
    EXPECT_EQ(joint.per_user[u.id], baseline.per_user[u.id]) << "u=" << u.id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(joint.per_user[u.id][i], expected[i])
          << "u=" << u.id << " pos=" << i;
    }
    EXPECT_EQ(joint.rsk[u.id],
              expected.size() == k ? expected.back().score : -1.0);
  }
}

class JointMeasureTest : public ::testing::TestWithParam<TextMeasure> {};

// Candidate rows score every measure; the symmetric ones also read the
// users' keyword weights, so a second group carries weighted keywords.
TEST_P(JointMeasureTest, MatchesBruteForceAndBaselineExactly) {
  JointFixture f(1500, 40, Weighting::kTfIdf, 0.4, 29, GetParam());
  ExpectExact(f, f.gen.users, 7);
  std::vector<StUser> weighted = f.gen.users;
  for (StUser& u : weighted) u.keywords = f.dataset.object(u.id * 31).doc;
  ExpectExact(f, weighted, 7);
}

INSTANTIATE_TEST_SUITE_P(Measures, JointMeasureTest,
                         ::testing::Values(TextMeasure::kExtendedJaccard,
                                           TextMeasure::kCosine,
                                           TextMeasure::kSum),
                         [](const auto& info) {
                           return TextMeasureName(info.param);
                         });

// A keyword past the end of corpus_max has cmax 0: it adds nothing to a
// user's kSum normalizer, and the super-user bounds must still hold.
TEST(JointTopKTest, OutOfCorpusKeywordGroupMatchesOracles) {
  JointFixture f(1500, 40, Weighting::kLanguageModel, 0.5, 31);
  const TermId oov = static_cast<TermId>(f.dataset.corpus_max().size() + 3);
  std::vector<StUser> users = f.gen.users;
  for (size_t i = 0; i < users.size(); i += 3) {
    std::vector<TermId> terms = {oov};
    for (const TermWeight& e : users[i].keywords.entries()) {
      terms.push_back(e.term);
    }
    users[i].keywords = TermVector::FromTerms(terms);
  }
  users[1].keywords = TermVector::FromTerms({oov});  // scores 0 on text
  ExpectExact(f, users, 6);
}

struct SweepCase {
  size_t k;
  double alpha;
};

class JointSweepTest : public ::testing::TestWithParam<SweepCase> {};

// Exhaustive cross-sweep: for every (k, alpha) grid point the joint result
// must equal the per-user brute force, and RS_k(u) must be the k-th score.
TEST_P(JointSweepTest, GridPointMatchesOracle) {
  const SweepCase& c = GetParam();
  JointFixture f(1200, 25, Weighting::kLanguageModel, c.alpha, 40 + c.k);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const JointTopKResult joint = proc.Process(f.gen.users, c.k);
  for (const StUser& u : f.gen.users) {
    TopKQuery q{u.loc, &u.keywords, c.k, IurTree::kNoObject};
    const auto expected = BruteForceTopK(f.dataset, f.scorer, q);
    ASSERT_EQ(joint.per_user[u.id].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(joint.per_user[u.id][i], expected[i])
          << "k=" << c.k << " alpha=" << c.alpha << " u=" << u.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JointSweepTest,
    ::testing::Values(SweepCase{1, 0.1}, SweepCase{1, 0.5}, SweepCase{1, 0.9},
                      SweepCase{5, 0.1}, SweepCase{5, 0.5}, SweepCase{5, 0.9},
                      SweepCase{25, 0.1}, SweepCase{25, 0.5},
                      SweepCase{25, 0.9}, SweepCase{100, 0.3},
                      SweepCase{100, 0.7}),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(info.param.k);
      name += "_a";
      name += std::to_string(static_cast<int>(info.param.alpha * 10));
      return name;
    });

TEST(JointTopKTest, MatchesBaselineAndUsesLessIo) {
  JointFixture f(4000, 100, Weighting::kLanguageModel, 0.5, 3);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const size_t k = 10;
  const JointTopKResult joint = proc.Process(f.gen.users, k);
  const JointTopKResult baseline = proc.BaselinePerUser(f.gen.users, k);
  for (size_t u = 0; u < f.gen.users.size(); ++u) {
    ASSERT_EQ(joint.per_user[u].size(), baseline.per_user[u].size());
    for (size_t i = 0; i < joint.per_user[u].size(); ++i) {
      EXPECT_EQ(joint.per_user[u][i], baseline.per_user[u][i]);
    }
  }
  // The whole point of joint processing: shared I/O beats per-user I/O.
  EXPECT_LT(joint.io.TotalIos(), baseline.io.TotalIos());
}

TEST(JointTopKTest, AlphaExtremes) {
  for (double alpha : {0.0, 1.0}) {
    JointFixture f(1200, 30, Weighting::kLanguageModel, alpha, 11);
    JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
    const JointTopKResult joint = proc.Process(f.gen.users, 5);
    for (const StUser& u : f.gen.users) {
      TopKQuery q{u.loc, &u.keywords, 5, IurTree::kNoObject};
      const auto expected = BruteForceTopK(f.dataset, f.scorer, q);
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(joint.per_user[u.id][i].id, expected[i].id)
            << "alpha=" << alpha << " u=" << u.id;
      }
    }
  }
}

TEST(JointTopKTest, KLargerThanCollection) {
  JointFixture f(30, 10, Weighting::kLanguageModel, 0.5, 13);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const JointTopKResult joint = proc.Process(f.gen.users, 50);
  for (const StUser& u : f.gen.users) {
    EXPECT_EQ(joint.per_user[u.id].size(), 30u);
    EXPECT_LT(joint.rsk[u.id], 0.0);  // fewer than k competitors
  }
}

TEST(JointTopKTest, TraversalPoolCoversAllTopK) {
  JointFixture f(2000, 50, Weighting::kLanguageModel, 0.3, 17);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const size_t k = 8;
  IoStats io;
  const SuperUser su = SuperUser::FromUsers(f.gen.users);
  const JointTraversal traversal = proc.Traverse(su, k, &io);
  std::vector<bool> in_pool(f.dataset.size(), false);
  for (ObjectId id : traversal.lo) in_pool[id] = true;
  for (const TopKResult& r : traversal.ro) in_pool[r.id] = true;
  for (const StUser& u : f.gen.users) {
    TopKQuery q{u.loc, &u.keywords, k, IurTree::kNoObject};
    for (const TopKResult& r : BruteForceTopK(f.dataset, f.scorer, q)) {
      EXPECT_TRUE(in_pool[r.id]) << "user " << u.id << " object " << r.id;
    }
  }
  // RO is sorted by descending upper bound.
  for (size_t i = 1; i < traversal.ro.size(); ++i) {
    EXPECT_GE(traversal.ro[i - 1].score, traversal.ro[i].score);
  }
  EXPECT_EQ(traversal.lo.size(), k);
}

TEST(JointTopKTest, ScoredObjectsFarBelowBaselineWork) {
  JointFixture f(3000, 80, Weighting::kLanguageModel, 0.5, 19);
  JointTopKProcessor proc(&f.tree, &f.dataset, &f.scorer);
  const JointTopKResult joint = proc.Process(f.gen.users, 10);
  // The candidate pool should be substantially smaller than |U| * |O| (a
  // full per-user scan); the RO early-break keeps per-user work bounded.
  EXPECT_LT(joint.scored_objects,
            static_cast<uint64_t>(f.gen.users.size()) * f.dataset.size() / 3);
  // And the shared pool prunes at least part of the collection (text
  // pruning under per-user normalization is intrinsically conservative).
  EXPECT_LT(joint.traversal.lo.size() + joint.traversal.ro.size(),
            f.dataset.size());
}

}  // namespace
}  // namespace rst
