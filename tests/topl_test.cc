// Tests for the ℓ-MaxBRSTkNN extension (SolveTopL): top-ℓ placements at
// distinct locations ranked by coverage.

#include <gtest/gtest.h>

#include "rst/data/generators.h"
#include "rst/maxbrst/maxbrst.h"

namespace rst {
namespace {

struct TopLFixture {
  Dataset dataset;
  GeneratedUsers gen;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;
  std::vector<double> rsk;
  MaxBrstQuery query;

  TopLFixture()
      : tree(IurTree::Build({}, {})),
        // Placeholder measure: kSum requires corpus-max normalizers, which
        // exist only after the dataset is generated in the body (reassigned
        // there). EJ keeps the pre-init state assert-clean in Debug builds.
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = 800;
    config.vocab_size = 300;
    config.seed = 91;
    dataset = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
    UserGenConfig ucfg;
    ucfg.num_users = 50;
    ucfg.area_extent = 25.0;
    ucfg.seed = 92;
    gen = GenUsers(dataset, ucfg);
    tree = IurTree::BuildFromDataset(dataset, {});
    sim = TextSimilarity(TextMeasure::kSum, &dataset.corpus_max());
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
    JointTopKProcessor proc(&tree, &dataset, &scorer);
    rsk = proc.Process(gen.users, 10).rsk;
    query.locations = GenCandidateLocations(gen.area, 12, 93);
    query.keywords = gen.candidate_keywords;
    query.ws = 2;
    query.k = 10;
  }
};

TEST(SolveTopLTest, TopOneEqualsSolve) {
  TopLFixture f;
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const MaxBrstResult single =
      solver.Solve(f.gen.users, f.rsk, f.query, KeywordSelect::kExact);
  const auto top1 =
      solver.SolveTopL(f.gen.users, f.rsk, f.query, KeywordSelect::kExact, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].location_index, single.location_index);
  EXPECT_EQ(top1[0].coverage(), single.coverage());
  EXPECT_EQ(top1[0].keywords, single.keywords);
}

TEST(SolveTopLTest, CoveragesAreNonIncreasingAndLocationsDistinct) {
  TopLFixture f;
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const auto top5 =
      solver.SolveTopL(f.gen.users, f.rsk, f.query, KeywordSelect::kExact, 5);
  ASSERT_LE(top5.size(), 5u);
  ASSERT_GE(top5.size(), 1u);
  std::set<size_t> locations;
  for (size_t i = 0; i < top5.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(top5[i].coverage(), top5[i - 1].coverage());
    }
    if (top5[i].location_index != SIZE_MAX) {
      EXPECT_TRUE(locations.insert(top5[i].location_index).second)
          << "duplicate location at rank " << i;
    }
  }
}

TEST(SolveTopLTest, MatchesBruteForcePerLocationOptima) {
  TopLFixture f;
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const size_t ell = 4;
  const auto top =
      solver.SolveTopL(f.gen.users, f.rsk, f.query, KeywordSelect::kExact, ell);

  // Oracle: best coverage achievable at each location independently.
  std::vector<size_t> per_location;
  for (size_t li = 0; li < f.query.locations.size(); ++li) {
    MaxBrstQuery one = f.query;
    one.locations = {f.query.locations[li]};
    per_location.push_back(
        BruteForceMaxBrst(f.gen.users, f.rsk, f.dataset, f.scorer, one)
            .coverage());
  }
  std::sort(per_location.rbegin(), per_location.rend());
  for (size_t i = 0; i < top.size() && i < ell; ++i) {
    EXPECT_EQ(top[i].coverage(), per_location[i]) << "rank " << i;
  }
}

TEST(SolveTopLTest, EllLargerThanLocations) {
  TopLFixture f;
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const auto all = solver.SolveTopL(f.gen.users, f.rsk, f.query,
                                    KeywordSelect::kApprox, 100);
  EXPECT_LE(all.size(), f.query.locations.size());
}

TEST(SolveTopLTest, EllZeroIsEmpty) {
  TopLFixture f;
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  EXPECT_TRUE(
      solver.SolveTopL(f.gen.users, f.rsk, f.query, KeywordSelect::kApprox, 0)
          .empty());
}

}  // namespace
}  // namespace rst
