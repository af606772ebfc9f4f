// Degenerate and boundary inputs across the whole stack: empty collections,
// single objects, k = 0, coincident locations, identical documents, empty
// keyword sets, and zero-budget placements must all behave, not crash.

#include <gtest/gtest.h>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/maxbrst/miur.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

Dataset TinyDataset(std::vector<std::pair<Point, std::vector<TermId>>> rows,
                    Weighting weighting = Weighting::kTfIdf) {
  Dataset d;
  for (auto& [loc, terms] : rows) {
    d.Add(loc, RawDocument::FromTokens(terms));
  }
  d.Finalize({weighting, 0.1});
  return d;
}

TEST(EdgeCaseTest, EmptyDataset) {
  Dataset d = TinyDataset({});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  const TermVector qdoc = TermVector::FromTerms({1});
  TopKSearcher topk(&tree, &d, &scorer);
  EXPECT_TRUE(topk.Search({Point{0, 0}, &qdoc, 5, IurTree::kNoObject}).empty());
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(tree);
  RstknnSearcher rst(&frozen, &d, &scorer);
  EXPECT_TRUE(
      rst.Search({Point{0, 0}, &qdoc, 5, IurTree::kNoObject}).answers.empty());
}

TEST(EdgeCaseTest, SingleObject) {
  Dataset d = TinyDataset({{Point{1, 1}, {0, 1}}});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  RstknnSearcher rst(&tree, &d, &scorer);
  const TermVector qdoc = TermVector::FromTerms({0});
  // The lone object has no competitors: q is trivially in its top-k.
  const auto r = rst.Search({Point{5, 5}, &qdoc, 3, IurTree::kNoObject});
  EXPECT_EQ(r.answers, std::vector<ObjectId>{0});
  // Excluding the object itself leaves nothing.
  const StObject& obj = d.object(0);
  EXPECT_TRUE(rst.Search({obj.loc, &obj.doc, 3, 0}).answers.empty());
}

TEST(EdgeCaseTest, KZeroReturnsNothing) {
  Dataset d = TinyDataset({{Point{0, 0}, {0}}, {Point{1, 1}, {1}}});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  RstknnSearcher rst(&tree, &d, &scorer);
  const TermVector qdoc = TermVector::FromTerms({0});
  EXPECT_TRUE(
      rst.Search({Point{0, 0}, &qdoc, 0, IurTree::kNoObject}).answers.empty());
}

TEST(EdgeCaseTest, CoincidentLocations) {
  // All objects at the same point: ranking is purely textual and spatial
  // similarity must not produce NaNs (max_dist degenerates).
  Dataset d = TinyDataset({{Point{2, 2}, {0, 1}},
                           {Point{2, 2}, {1, 2}},
                           {Point{2, 2}, {2, 3}},
                           {Point{2, 2}, {0, 3}}});
  EXPECT_GT(d.max_dist(), 0.0);  // guarded fallback
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  RstknnSearcher rst(&tree, &d, &scorer);
  const StObject& q = d.object(0);
  const auto got = rst.Search({q.loc, &q.doc, 1, 0});
  EXPECT_EQ(got.answers, BruteForceRstknn(d, scorer, {q.loc, &q.doc, 1, 0}));
  for (ObjectId id : got.answers) {
    const double score =
        scorer.Score(d.object(id).loc, d.object(id).doc, q.loc, q.doc);
    EXPECT_FALSE(std::isnan(score));
  }
}

TEST(EdgeCaseTest, IdenticalDocuments) {
  // Every object textually identical: ties everywhere; results must still
  // match the oracle exactly (tie rules are part of the contract).
  std::vector<std::pair<Point, std::vector<TermId>>> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Point{static_cast<double>(i % 7), static_cast<double>(i / 7)},
                    {0, 1, 2}});
  }
  Dataset d = TinyDataset(std::move(rows));
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  RstknnSearcher rst(&tree, &d, &scorer);
  for (ObjectId qid : {0u, 20u, 39u}) {
    const StObject& q = d.object(qid);
    const RstknnQuery query{q.loc, &q.doc, 4, qid};
    EXPECT_EQ(rst.Search(query).answers, BruteForceRstknn(d, scorer, query))
        << "qid=" << qid;
  }
}

TEST(EdgeCaseTest, ObjectWithEmptyDocument) {
  Dataset d = TinyDataset({{Point{0, 0}, {}},      // no terms at all
                           {Point{1, 0}, {0, 1}},
                           {Point{0, 1}, {1}}});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  RstknnSearcher rst(&tree, &d, &scorer);
  const StObject& q = d.object(1);
  const RstknnQuery query{q.loc, &q.doc, 1, 1};
  EXPECT_EQ(rst.Search(query).answers, BruteForceRstknn(d, scorer, query));
}

TEST(EdgeCaseTest, UserWithNoKeywords) {
  Dataset d = TinyDataset({{Point{0, 0}, {0}}, {Point{3, 3}, {1}}},
                          Weighting::kLanguageModel);
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kSum, &d.corpus_max());
  StScorer scorer(&sim, {0.5, d.max_dist()});
  JointTopKProcessor proc(&tree, &d, &scorer);
  std::vector<StUser> users(2);
  users[0] = {0, Point{0, 0}, TermVector()};           // empty keyword set
  users[1] = {1, Point{1, 1}, TermVector::FromTerms({0})};
  const JointTopKResult joint = proc.Process(users, 1);
  ASSERT_EQ(joint.per_user[0].size(), 1u);
  // Text score is 0 for the keyword-less user; ranking is purely spatial.
  EXPECT_EQ(joint.per_user[0][0].id, 0u);
  const auto baseline = proc.BaselinePerUser(users, 1);
  EXPECT_EQ(joint.per_user[0], baseline.per_user[0]);
  EXPECT_EQ(joint.per_user[1], baseline.per_user[1]);
}

TEST(EdgeCaseTest, PlacementWithZeroBudgetOrNoKeywords) {
  Dataset d = TinyDataset({{Point{0, 0}, {0, 1}}, {Point{5, 5}, {1, 2}}},
                          Weighting::kLanguageModel);
  TextSimilarity sim(TextMeasure::kSum, &d.corpus_max());
  StScorer scorer(&sim, {0.5, d.max_dist()});
  std::vector<StUser> users(1);
  users[0] = {0, Point{1, 1}, TermVector::FromTerms({0, 2})};
  std::vector<double> rsk = {0.4};
  MaxBrstSolver solver(&d, &scorer);
  MaxBrstQuery query;
  query.locations = {Point{1, 1}};
  query.keywords = {0, 2};
  query.ws = 0;  // may not add any keyword
  query.k = 1;
  const MaxBrstResult r =
      solver.Solve(users, rsk, query, KeywordSelect::kExact);
  EXPECT_TRUE(r.keywords.empty());
  EXPECT_EQ(r.coverage(),
            BruteForceMaxBrst(users, rsk, d, scorer, query).coverage());
}

TEST(EdgeCaseTest, MiurWithSingleUser) {
  FlickrLikeConfig config;
  config.num_objects = 200;
  config.seed = 3;
  Dataset d = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(d, {});
  TextSimilarity sim(TextMeasure::kSum, &d.corpus_max());
  StScorer scorer(&sim, {0.5, d.max_dist()});
  std::vector<StUser> users(1);
  users[0] = {0, d.object(10).loc,
              TermVector::FromTerms({d.object(10).raw.term_counts[0].first})};
  const IurTree user_tree = IurTree::BuildFromUsers(users, {});
  MaxBrstQuery query;
  query.locations = {d.object(10).loc};
  query.keywords = {users[0].keywords.entries()[0].term};
  query.ws = 1;
  query.k = 3;
  MiurMaxBrstSolver miur(&tree, &d, &scorer, &user_tree, &users);
  const MiurResult r = miur.Solve(query, KeywordSelect::kExact);
  // Placing the object at the user's own location with their keyword should
  // reach that single user.
  EXPECT_EQ(r.best.coverage(), 1u);
}

TEST(EdgeCaseTest, DuplicateCandidateKeywordsAreDeduped) {
  Dataset d = TinyDataset({{Point{0, 0}, {0, 1, 2}}},
                          Weighting::kLanguageModel);
  MaxBrstQuery query;
  query.keywords = {2, 0, 2, 0, 1};
  query.ws = 2;
  const PlacementContext ctx = PlacementContext::Make(d, query);
  EXPECT_EQ(ctx.keywords, (std::vector<TermId>{0, 1, 2}));
}

}  // namespace
}  // namespace rst
