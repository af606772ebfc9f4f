#include "rst/maxbrst/miur.h"

#include <gtest/gtest.h>

#include "rst/data/generators.h"

namespace rst {
namespace {

struct MiurFixture {
  Dataset dataset;
  GeneratedUsers gen;
  IurTree object_tree;
  IurTree user_tree;
  TextSimilarity sim;
  StScorer scorer;

  MiurFixture(size_t num_objects, size_t num_users, uint64_t seed)
      : object_tree(IurTree::Build({}, {})),
        user_tree(IurTree::Build({}, {})),
        // Placeholder measure: kSum requires corpus-max normalizers, which
        // exist only after the dataset is generated in the body (reassigned
        // there). EJ keeps the pre-init state assert-clean in Debug builds.
        sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = num_objects;
    config.vocab_size = 300;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
    UserGenConfig ucfg;
    ucfg.num_users = num_users;
    ucfg.area_extent = 30.0;
    ucfg.num_unique_keywords = 12;
    ucfg.seed = seed + 2;
    gen = GenUsers(dataset, ucfg);
    object_tree = IurTree::BuildFromDataset(dataset, {});
    IurTreeOptions uopts;
    uopts.max_entries = 8;  // small fan-out => deeper user tree, more pruning
    user_tree = IurTree::BuildFromUsers(gen.users, uopts);
    sim = TextSimilarity(TextMeasure::kSum, &dataset.corpus_max());
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }
};

TEST(MiurTest, MatchesNonIndexedCoverage) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    MiurFixture f(900, 120, seed);
    MaxBrstQuery query;
    query.locations = GenCandidateLocations(f.gen.area, 10, seed);
    query.keywords = f.gen.candidate_keywords;
    query.ws = 2;
    query.k = 10;

    // Reference: all users in memory.
    JointTopKProcessor proc(&f.object_tree, &f.dataset, &f.scorer);
    const JointTopKResult joint = proc.Process(f.gen.users, query.k);
    MaxBrstSolver plain(&f.dataset, &f.scorer);
    const MaxBrstResult expected =
        plain.Solve(f.gen.users, joint.rsk, query, KeywordSelect::kExact);

    MiurMaxBrstSolver miur(&f.object_tree, &f.dataset, &f.scorer, &f.user_tree,
                           &f.gen.users);
    const MiurResult got = miur.Solve(query, KeywordSelect::kExact);
    EXPECT_EQ(got.best.coverage(), expected.coverage()) << "seed=" << seed;
    // The reported winner really covers what it claims.
    if (got.best.location_index != SIZE_MAX) {
      const PlacementContext ctx = PlacementContext::Make(f.dataset, query);
      std::vector<uint32_t> everyone;
      for (const StUser& u : f.gen.users) everyone.push_back(u.id);
      const auto verify = EvaluatePlacement(
          f.gen.users, everyone, joint.rsk, f.scorer,
          query.locations[got.best.location_index],
          ctx.VecWith(got.best.keywords), nullptr);
      EXPECT_EQ(verify.size(), got.best.coverage());
    }
  }
}

TEST(MiurTest, PrunesSomeUsers) {
  MiurFixture f(1500, 200, 31);
  MaxBrstQuery query;
  // A single far-away location: many user subtrees should never be refined.
  query.locations = {
      Point{f.dataset.bounds().min_x, f.dataset.bounds().min_y}};
  query.keywords = f.gen.candidate_keywords;
  query.ws = 2;
  query.k = 5;
  MiurMaxBrstSolver miur(&f.object_tree, &f.dataset, &f.scorer, &f.user_tree,
                         &f.gen.users);
  const MiurResult got = miur.Solve(query, KeywordSelect::kApprox);
  EXPECT_LE(got.stats.users_refined, f.gen.users.size());
  const double pruned = got.stats.UsersPrunedFraction(f.gen.users.size());
  EXPECT_GE(pruned, 0.0);
  EXPECT_LE(pruned, 1.0);
  EXPECT_GT(got.stats.user_io.TotalIos(), 0u);
  EXPECT_GT(got.stats.object_io.TotalIos(), 0u);
}

TEST(MiurTest, ApproxCoverageWithinExact) {
  MiurFixture f(800, 100, 41);
  MaxBrstQuery query;
  query.locations = GenCandidateLocations(f.gen.area, 8, 41);
  query.keywords = f.gen.candidate_keywords;
  query.ws = 2;
  query.k = 10;
  MiurMaxBrstSolver miur(&f.object_tree, &f.dataset, &f.scorer, &f.user_tree,
                         &f.gen.users);
  const MiurResult exact = miur.Solve(query, KeywordSelect::kExact);
  const MiurResult approx = miur.Solve(query, KeywordSelect::kApprox);
  EXPECT_LE(approx.best.coverage(), exact.best.coverage());
}

}  // namespace
}  // namespace rst
