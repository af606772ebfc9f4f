#include "rst/text/similarity.h"

#include <gtest/gtest.h>

#include <limits>

namespace rst {
namespace {

TermVector Vec(std::vector<TermWeight> entries) {
  return TermVector::FromUnsorted(std::move(entries));
}

TEST(ExtendedJaccardTest, KnownValues) {
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  TermVector a = Vec({{0, 1.0f}, {1, 1.0f}});
  // Identical vectors -> 1.
  EXPECT_DOUBLE_EQ(ej.Sim(a, a), 1.0);
  // Disjoint vectors -> 0.
  EXPECT_DOUBLE_EQ(ej.Sim(a, Vec({{2, 1.0f}})), 0.0);
  // <a,b>=1, |a|²=2, |b|²=1 -> 1/(2+1-1) = 0.5
  EXPECT_DOUBLE_EQ(ej.Sim(a, Vec({{0, 1.0f}})), 0.5);
  // Empty vectors -> 0, no division by zero.
  EXPECT_DOUBLE_EQ(ej.Sim(TermVector(), TermVector()), 0.0);
}

TEST(ExtendedJaccardTest, SymmetricAndBoundedByOne) {
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  TermVector a = Vec({{0, 0.3f}, {1, 2.0f}, {4, 1.0f}});
  TermVector b = Vec({{1, 1.0f}, {4, 4.0f}, {9, 0.5f}});
  EXPECT_DOUBLE_EQ(ej.Sim(a, b), ej.Sim(b, a));
  EXPECT_LE(ej.Sim(a, b), 1.0);
  EXPECT_GT(ej.Sim(a, b), 0.0);
}

TEST(CosineTest, KnownValues) {
  TextSimilarity cos(TextMeasure::kCosine);
  TermVector a = Vec({{0, 1.0f}});
  TermVector b = Vec({{0, 1.0f}, {1, 1.0f}});
  EXPECT_DOUBLE_EQ(cos.Sim(a, a), 1.0);
  EXPECT_NEAR(cos.Sim(a, b), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(cos.Sim(a, Vec({{3, 2.0f}})), 0.0);
  // Scale invariance.
  TermVector b10 = Vec({{0, 10.0f}, {1, 10.0f}});
  EXPECT_NEAR(cos.Sim(a, b10), cos.Sim(a, b), 1e-12);
}

class SumMeasureTest : public ::testing::Test {
 protected:
  SumMeasureTest() : cmax_{2.0f, 1.0f, 4.0f, 0.5f}, sum_(TextMeasure::kSum, &cmax_) {}
  std::vector<float> cmax_;
  TextSimilarity sum_;
};

TEST_F(SumMeasureTest, NormalizedPerUserKeywordSet) {
  TermVector object = Vec({{0, 1.0f}, {2, 2.0f}});
  // User asks for terms {0, 2}: (1+2) / (2+4) = 0.5.
  EXPECT_DOUBLE_EQ(sum_.Sim(object, TermVector::FromTerms({0, 2})), 0.5);
  // User asks for {0}: 1/2.
  EXPECT_DOUBLE_EQ(sum_.Sim(object, TermVector::FromTerms({0})), 0.5);
  // Terms absent from the object contribute 0 but keep their normalizer.
  EXPECT_DOUBLE_EQ(sum_.Sim(object, TermVector::FromTerms({0, 1})), 1.0 / 3.0);
  // A user with no keywords scores 0.
  EXPECT_DOUBLE_EQ(sum_.Sim(object, TermVector()), 0.0);
}

TEST_F(SumMeasureTest, ScoreIsOneWhenObjectAttainsCorpusMax) {
  TermVector object = Vec({{0, 2.0f}, {1, 1.0f}});
  EXPECT_DOUBLE_EQ(sum_.Sim(object, TermVector::FromTerms({0, 1})), 1.0);
}

TEST_F(SumMeasureTest, KeywordOverlapAsBinarySum) {
  // With binary object weights and unit normalizers, kSum reduces to
  // |u ∩ o| / |u| — the 2016 paper's keyword-overlap measure.
  std::vector<float> ones(4, 1.0f);
  TextSimilarity ko(TextMeasure::kSum, &ones);
  TermVector object = TermVector::FromTerms({0, 2, 3});
  EXPECT_DOUBLE_EQ(ko.Sim(object, TermVector::FromTerms({0, 1})), 0.5);
  EXPECT_DOUBLE_EQ(ko.Sim(object, TermVector::FromTerms({0, 2, 3})), 1.0);
  EXPECT_DOUBLE_EQ(ko.Sim(object, TermVector::FromTerms({1})), 0.0);
}

TEST(StScorerTest, CombinesSpatialAndText) {
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  StOptions opts;
  opts.alpha = 0.6;
  opts.max_dist = 10.0;
  StScorer scorer(&ej, opts);
  TermVector d = Vec({{0, 1.0f}});
  // Same doc, distance 5: 0.6 * (1 - 0.5) + 0.4 * 1 = 0.7.
  EXPECT_DOUBLE_EQ(scorer.Score(Point{0, 0}, d, Point{3, 4}, d), 0.7);
  // alpha = 1 ignores text entirely.
  StScorer spatial_only(&ej, {1.0, 10.0});
  EXPECT_DOUBLE_EQ(
      spatial_only.Score(Point{0, 0}, d, Point{3, 4}, Vec({{5, 1.0f}})), 0.5);
  // alpha = 0 ignores space entirely.
  StScorer text_only(&ej, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(text_only.Score(Point{0, 0}, d, Point{3, 4}, d), 1.0);
}

TEST(StScorerDeathTest, RejectsAlphaOutsideUnitInterval) {
  // The score bounds pair 1 − α with MaxSim; outside [0, 1] they stop
  // bounding, so the scorer refuses such an α (and NaN) outright.
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  for (const double alpha :
       {1.5, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_DEATH(StScorer(&ej, {alpha, 1.0}), "alpha .* is outside \\[0, 1\\]")
        << "alpha " << alpha;
  }
}

TEST(StScorerTest, SpatialSimClampsBeyondMaxDist) {
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  StScorer scorer(&ej, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(scorer.SpatialSim(0.0), 1.0);
  EXPECT_DOUBLE_EQ(scorer.SpatialSim(0.25), 0.75);
  EXPECT_DOUBLE_EQ(scorer.SpatialSim(2.0), 0.0);  // clamped
}

TEST(TextSummaryTest, MergeAccumulates) {
  TermVector a = Vec({{0, 1.0f}, {1, 2.0f}});
  TermVector b = Vec({{1, 1.0f}, {2, 3.0f}});
  TextSummary sa = TextSummary::FromDoc(a);
  TextSummary sb = TextSummary::FromDoc(b);
  TextSummary m = TextSummary::Merge(sa, sb);
  EXPECT_EQ(m.count, 2u);
  EXPECT_EQ(m.uni.Get(0), 1.0f);
  EXPECT_EQ(m.uni.Get(1), 2.0f);
  EXPECT_EQ(m.uni.Get(2), 3.0f);
  ASSERT_EQ(m.intr.size(), 1u);  // only term 1 is shared
  EXPECT_EQ(m.intr.Get(1), 1.0f);
  // Merging with an empty summary is the identity.
  TextSummary empty;
  TextSummary same = TextSummary::Merge(m, empty);
  EXPECT_EQ(same.count, 2u);
  EXPECT_EQ(same.uni, m.uni);
}

TEST(TextMeasureTest, NamesAreStable) {
  EXPECT_STREQ(TextMeasureName(TextMeasure::kExtendedJaccard),
               "extended_jaccard");
  EXPECT_STREQ(TextMeasureName(TextMeasure::kCosine), "cosine");
  EXPECT_STREQ(TextMeasureName(TextMeasure::kSum), "normalized_sum");
}

}  // namespace
}  // namespace rst
