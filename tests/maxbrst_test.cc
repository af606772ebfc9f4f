#include "rst/maxbrst/maxbrst.h"

#include <gtest/gtest.h>

#include "rst/data/generators.h"

namespace rst {
namespace {

struct BrstFixture {
  Dataset dataset;
  GeneratedUsers gen;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;
  std::vector<double> rsk;

  BrstFixture(size_t num_objects, size_t num_users, size_t k, double alpha,
              Weighting weighting, uint64_t seed)
      : tree(IurTree::Build({}, {})),
        // Placeholder measure: kSum requires corpus-max normalizers, which
        // exist only after the dataset is generated in the body (reassigned
        // there). EJ keeps the pre-init state assert-clean in Debug builds.
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {alpha, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = num_objects;
    config.vocab_size = 300;
    config.seed = seed;
    dataset = GenFlickrLike(config, {weighting, 0.1});
    UserGenConfig ucfg;
    ucfg.num_users = num_users;
    ucfg.area_extent = 25.0;
    ucfg.num_unique_keywords = 12;
    ucfg.seed = seed + 1;
    gen = GenUsers(dataset, ucfg);
    tree = IurTree::BuildFromDataset(dataset, {});
    sim = TextSimilarity(TextMeasure::kSum, &dataset.corpus_max());
    scorer = StScorer(&sim, {alpha, dataset.max_dist()});
    JointTopKProcessor proc(&tree, &dataset, &scorer);
    rsk = proc.Process(gen.users, k).rsk;
  }

  MaxBrstQuery MakeQuery(size_t num_locations, size_t ws, size_t k,
                         uint64_t seed) const {
    MaxBrstQuery q;
    q.locations = GenCandidateLocations(gen.area, num_locations, seed);
    q.keywords = gen.candidate_keywords;
    q.ws = ws;
    q.k = k;
    return q;
  }
};

TEST(PlacementContextTest, VectorsRestrictAndMerge) {
  Dataset d;
  d.Add(Point{0, 0}, RawDocument::FromTokens({0, 1}));
  d.Add(Point{1, 1}, RawDocument::FromTokens({2, 3}));
  d.Finalize({Weighting::kBinary, 0.1});
  MaxBrstQuery q;
  q.existing_raw = RawDocument::FromTokens({0});
  q.keywords = {2, 3};
  const PlacementContext ctx = PlacementContext::Make(d, q);
  EXPECT_TRUE(ctx.existing_vec.Contains(0));
  EXPECT_FALSE(ctx.existing_vec.Contains(2));
  EXPECT_TRUE(ctx.full_vec.Contains(2));
  const TermVector with2 = ctx.VecWith({2});
  EXPECT_TRUE(with2.Contains(0));
  EXPECT_TRUE(with2.Contains(2));
  EXPECT_FALSE(with2.Contains(3));
}

struct SolveCase {
  size_t num_objects;
  size_t num_users;
  size_t num_locations;
  size_t ws;
  size_t k;
  double alpha;
  Weighting weighting;
  uint64_t seed;
};

class MaxBrstExactTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(MaxBrstExactTest, ExactSolverMatchesBruteForceCoverage) {
  const SolveCase& c = GetParam();
  BrstFixture f(c.num_objects, c.num_users, c.k, c.alpha, c.weighting, c.seed);
  const MaxBrstQuery query = f.MakeQuery(c.num_locations, c.ws, c.k, c.seed);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const MaxBrstResult exact =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
  const MaxBrstResult brute =
      BruteForceMaxBrst(f.gen.users, f.rsk, f.dataset, f.scorer, query);
  EXPECT_EQ(exact.coverage(), brute.coverage());
  // The reported tuple must actually achieve the reported coverage.
  if (exact.location_index != SIZE_MAX) {
    const PlacementContext ctx = PlacementContext::Make(f.dataset, query);
    std::vector<uint32_t> everyone;
    for (const StUser& u : f.gen.users) everyone.push_back(u.id);
    const auto verify = EvaluatePlacement(
        f.gen.users, everyone, f.rsk, f.scorer,
        query.locations[exact.location_index], ctx.VecWith(exact.keywords),
        nullptr);
    EXPECT_EQ(verify, exact.covered_users);
    EXPECT_LE(exact.keywords.size(), query.ws);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaxBrstExactTest,
    ::testing::Values(
        SolveCase{800, 40, 10, 2, 5, 0.5, Weighting::kLanguageModel, 2},
        SolveCase{800, 40, 10, 3, 10, 0.3, Weighting::kLanguageModel, 3},
        SolveCase{600, 30, 5, 1, 5, 0.7, Weighting::kTfIdf, 4},
        SolveCase{600, 30, 8, 2, 20, 0.5, Weighting::kBinary, 5},
        SolveCase{500, 25, 1, 4, 5, 0.5, Weighting::kLanguageModel, 6},
        SolveCase{500, 25, 6, 2, 5, 0.1, Weighting::kLanguageModel, 7}),
    [](const auto& info) {
      std::string name = "o";
      name += std::to_string(info.param.num_objects);
      name += "_u";
      name += std::to_string(info.param.num_users);
      name += "_l";
      name += std::to_string(info.param.num_locations);
      name += "_ws";
      name += std::to_string(info.param.ws);
      name += "_k";
      name += std::to_string(info.param.k);
      name += "_";
      name += WeightingName(info.param.weighting);
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(MaxBrstTest, ApproxNeverBeatsExactAndIsReasonable) {
  BrstFixture f(800, 50, 10, 0.5, Weighting::kLanguageModel, 9);
  const MaxBrstQuery query = f.MakeQuery(12, 3, 10, 9);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const MaxBrstResult exact =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
  const MaxBrstResult approx =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kApprox);
  EXPECT_LE(approx.coverage(), exact.coverage());
  if (exact.coverage() > 0) {
    const double ratio = static_cast<double>(approx.coverage()) /
                         static_cast<double>(exact.coverage());
    EXPECT_GE(ratio, 0.5) << "approx=" << approx.coverage()
                          << " exact=" << exact.coverage();
  }
  // Approximate method evaluates far fewer combinations.
  EXPECT_LT(approx.stats.combinations_evaluated,
            exact.stats.combinations_evaluated);
}

TEST(MaxBrstTest, MoreBudgetNeverHurts) {
  BrstFixture f(700, 35, 10, 0.5, Weighting::kLanguageModel, 12);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  size_t prev = 0;
  for (size_t ws : {1u, 2u, 3u, 4u}) {
    const MaxBrstQuery query = f.MakeQuery(8, ws, 10, 12);
    const MaxBrstResult r =
        solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
    EXPECT_GE(r.coverage(), prev) << "ws=" << ws;
    prev = r.coverage();
  }
}

TEST(MaxBrstTest, ExistingTextContributes) {
  // TF-IDF weights are per-term constants, so scores are monotone in added
  // terms. (Under the language model longer text dilutes per-term weights,
  // so this monotonicity deliberately does not hold there.)
  BrstFixture f(700, 35, 10, 0.5, Weighting::kTfIdf, 14);
  MaxBrstQuery query = f.MakeQuery(8, 2, 10, 14);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const size_t bare =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact).coverage();
  // Give o_x an existing description containing every candidate keyword:
  // coverage can only grow.
  for (TermId w : f.gen.candidate_keywords) {
    query.existing_raw.term_counts.push_back({w, 1});
  }
  std::sort(query.existing_raw.term_counts.begin(),
            query.existing_raw.term_counts.end());
  const size_t rich =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact).coverage();
  EXPECT_GE(rich, bare);
}

TEST(MaxBrstTest, EmptyInputsAreHandled) {
  BrstFixture f(300, 10, 5, 0.5, Weighting::kLanguageModel, 15);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  MaxBrstQuery query;  // no locations, no keywords
  query.k = 5;
  const MaxBrstResult r =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
  EXPECT_EQ(r.location_index, SIZE_MAX);
  EXPECT_EQ(r.coverage(), 0u);
  // One location, zero candidate keywords: pure location choice.
  query.locations = GenCandidateLocations(f.gen.area, 1, 1);
  const MaxBrstResult r2 =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
  EXPECT_EQ(
      r2.coverage(),
      BruteForceMaxBrst(f.gen.users, f.rsk, f.dataset, f.scorer, query)
          .coverage());
}

TEST(MaxBrstTest, StatsReflectWork) {
  BrstFixture f(600, 30, 10, 0.5, Weighting::kLanguageModel, 16);
  const MaxBrstQuery query = f.MakeQuery(10, 2, 10, 16);
  MaxBrstSolver solver(&f.dataset, &f.scorer);
  const MaxBrstResult r =
      solver.Solve(f.gen.users, f.rsk, query, KeywordSelect::kExact);
  EXPECT_GT(r.stats.user_evaluations, 0u);
}

}  // namespace
}  // namespace rst
