// Property tests for the node-level similarity bounds — the foundation of
// every pruning rule in the library (DESIGN.md §3.1). For random groups of
// documents/users summarized the way IUR-/MIR-tree nodes summarize their
// subtrees, MinSim/MaxSim must bracket the exact similarity of every
// contained pair, and MinScore/MaxScore must bracket every combined score.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rst/common/rng.h"
#include "rst/text/similarity.h"
#include "rst/text/weighting.h"

namespace rst {
namespace {

constexpr size_t kVocab = 24;

TermVector RandomDoc(Rng* rng, double density, float max_w) {
  std::vector<TermWeight> entries;
  for (TermId t = 0; t < kVocab; ++t) {
    if (rng->Bernoulli(density)) {
      entries.push_back({t, static_cast<float>(rng->Uniform(0.05, max_w))});
    }
  }
  return TermVector::FromUnsorted(std::move(entries));
}

TermVector RandomKeywordSet(Rng* rng, double density) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < kVocab; ++t) {
    if (rng->Bernoulli(density)) terms.push_back(t);
  }
  return TermVector::FromTerms(terms);
}

TextSummary Summarize(const std::vector<TermVector>& docs) {
  TextSummary s;
  for (const TermVector& d : docs) {
    s = TextSummary::Merge(s, TextSummary::FromDoc(d));
  }
  return s;
}

class SymmetricBoundsTest : public ::testing::TestWithParam<TextMeasure> {};

TEST_P(SymmetricBoundsTest, BoundsBracketAllPairs) {
  const TextMeasure measure = GetParam();
  TextSimilarity sim(measure);
  Rng rng(1234 + static_cast<int>(measure));
  for (int trial = 0; trial < 300; ++trial) {
    const size_t na = 1 + rng.UniformInt(uint64_t{5});
    const size_t nb = 1 + rng.UniformInt(uint64_t{5});
    std::vector<TermVector> group_a, group_b;
    const double density = rng.Uniform(0.1, 0.6);
    for (size_t i = 0; i < na; ++i) {
      group_a.push_back(RandomDoc(&rng, density, 2.0f));
    }
    for (size_t i = 0; i < nb; ++i) {
      group_b.push_back(RandomDoc(&rng, density, 2.0f));
    }
    const TextSummary sa = Summarize(group_a);
    const TextSummary sb = Summarize(group_b);
    const double lo = sim.MinSim(sa, sb);
    const double hi = sim.MaxSim(sa, sb);
    EXPECT_LE(lo, hi + 1e-9);
    for (const TermVector& da : group_a) {
      for (const TermVector& db : group_b) {
        const double s = sim.Sim(da, db);
        EXPECT_LE(lo, s + 1e-9) << "measure=" << TextMeasureName(measure)
                                << " trial=" << trial;
        EXPECT_GE(hi, s - 1e-9) << "measure=" << TextMeasureName(measure)
                                << " trial=" << trial;
      }
    }
  }
}

TEST_P(SymmetricBoundsTest, SingletonSummariesAreTight) {
  const TextMeasure measure = GetParam();
  TextSimilarity sim(measure);
  Rng rng(77 + static_cast<int>(measure));
  for (int trial = 0; trial < 100; ++trial) {
    TermVector a = RandomDoc(&rng, 0.4, 2.0f);
    TermVector b = RandomDoc(&rng, 0.4, 2.0f);
    if (a.empty() || b.empty()) continue;
    const TextSummary sa = TextSummary::FromDoc(a);
    const TextSummary sb = TextSummary::FromDoc(b);
    const double s = sim.Sim(a, b);
    EXPECT_NEAR(sim.MinSim(sa, sb), s, 1e-9);
    EXPECT_NEAR(sim.MaxSim(sa, sb), s, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, SymmetricBoundsTest,
                         ::testing::Values(TextMeasure::kExtendedJaccard,
                                           TextMeasure::kCosine),
                         [](const auto& info) {
                           return TextMeasureName(info.param);
                         });

// The sum-form measure is asymmetric: group B is a set of users (keyword
// sets). Its bounds must hold for every (object doc, user) pair.
TEST(SumBoundsTest, BoundsBracketAllObjectUserPairs) {
  Rng rng(4321);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<TermVector> objects, users;
    const size_t no = 1 + rng.UniformInt(uint64_t{5});
    const size_t nu = 1 + rng.UniformInt(uint64_t{5});
    for (size_t i = 0; i < no; ++i) {
      objects.push_back(RandomDoc(&rng, rng.Uniform(0.1, 0.5), 1.0f));
    }
    for (size_t i = 0; i < nu; ++i) {
      users.push_back(RandomKeywordSet(&rng, rng.Uniform(0.1, 0.5)));
    }
    // Corpus max weights must dominate all object weights (precondition).
    std::vector<float> cmax = ComputeCorpusMaxWeights(objects, kVocab);
    for (float& c : cmax) c = std::max(c, 0.01f);
    TextSimilarity sim(TextMeasure::kSum, &cmax);

    const TextSummary so = Summarize(objects);
    const TextSummary su = Summarize(users);
    const double lo = sim.MinSim(so, su);
    const double hi = sim.MaxSim(so, su);
    EXPECT_LE(lo, hi + 1e-9);
    for (const TermVector& o : objects) {
      for (const TermVector& u : users) {
        const double s = sim.Sim(o, u);
        EXPECT_LE(lo, s + 1e-9) << "trial=" << trial;
        EXPECT_GE(hi, s - 1e-9) << "trial=" << trial;
      }
    }
  }
}

// Additionally, the sum bounds must hold for *hypothetical* users anywhere
// between the intersection and the union of the summarized keyword sets —
// that is what super-user pruning relies on (2016 paper, Lemma 2).
TEST(SumBoundsTest, BoundsCoverAnySubsetBetweenIntrAndUni) {
  Rng rng(9876);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<TermVector> objects = {RandomDoc(&rng, 0.4, 1.0f),
                                       RandomDoc(&rng, 0.4, 1.0f)};
    std::vector<TermVector> users = {RandomKeywordSet(&rng, 0.5),
                                     RandomKeywordSet(&rng, 0.5)};
    std::vector<float> cmax = ComputeCorpusMaxWeights(objects, kVocab);
    for (float& c : cmax) c = std::max(c, 0.01f);
    TextSimilarity sim(TextMeasure::kSum, &cmax);
    const TextSummary so = Summarize(objects);
    const TextSummary su = Summarize(users);
    const double lo = sim.MinSim(so, su);
    const double hi = sim.MaxSim(so, su);
    // Construct random subsets S with intr ⊆ S ⊆ uni.
    for (int s = 0; s < 30; ++s) {
      std::vector<TermId> terms;
      for (const TermWeight& e : su.uni.entries()) {
        if (su.intr.Contains(e.term) || rng.Bernoulli(0.5)) {
          terms.push_back(e.term);
        }
      }
      if (terms.empty()) continue;
      const TermVector hypothetical = TermVector::FromTerms(terms);
      for (const TermVector& o : objects) {
        const double score = sim.Sim(o, hypothetical);
        EXPECT_LE(lo, score + 1e-9);
        EXPECT_GE(hi, score - 1e-9);
      }
    }
  }
}

// Zero-cmax keywords (a term no object carries, or an id past the end of
// corpus_max) add nothing to either sum. They used to compare equal to every
// term in the ratio sort, which broke its strict weak ordering; one could
// land first and turn the upper bound into 0 below a contained user's score.
TEST(SumBoundsTest, ZeroCmaxKeywordDoesNotZeroTheUpperBound) {
  const std::vector<float> cmax = {0.0f, 1.0f, 1.0f};
  TextSimilarity sim(TextMeasure::kSum, &cmax);
  const TermVector obj = TermVector::FromSorted({{1, 0.5f}, {2, 0.9f}});
  const TextSummary so = TextSummary::FromDoc(obj);
  const TextSummary su = Summarize(
      {TermVector::FromTerms({0, 1}), TermVector::FromTerms({2})});
  ASSERT_TRUE(su.intr.empty());
  const double best = sim.Sim(obj, TermVector::FromTerms({2}));
  EXPECT_EQ(best, 0.9f);
  EXPECT_GE(sim.MaxSim(so, su), best);
  // The user {0, 1} scores 0.5, and a user holding only zero-cmax keywords
  // scores 0, which the lower bound must allow for.
  EXPECT_DOUBLE_EQ(sim.Sim(obj, TermVector::FromTerms({0})), 0.0);
  const TextSummary lone = Summarize(
      {TermVector::FromTerms({0}), TermVector::FromTerms({2})});
  EXPECT_EQ(sim.MinSim(so, lone), 0.0);
  // Required zero-cmax keywords: {0, 2} scores 0.9 although the required
  // part alone has no cmax mass.
  const TextSummary req = Summarize(
      {TermVector::FromTerms({0, 1}), TermVector::FromTerms({0, 2})});
  ASSERT_EQ(req.intr.size(), 1u);
  EXPECT_GE(sim.MaxSim(so, req), best);
  EXPECT_EQ(sim.MinSim(so, req), 0.0);
  // An out-of-vocabulary keyword (id >= corpus_max.size()) behaves the same.
  const TextSummary oov = Summarize(
      {TermVector::FromTerms({7, 1}), TermVector::FromTerms({2})});
  EXPECT_GE(sim.MaxSim(so, oov), best);
}

TermVector WithoutTerms(const TermVector& doc, TermId from) {
  std::vector<TermWeight> kept;
  for (const TermWeight& e : doc.entries()) {
    if (e.term < from) kept.push_back(e);
  }
  return TermVector::FromSorted(std::move(kept));
}

// The bracket property with keywords the corpus has no mass for: users draw
// from the whole vocabulary, objects only from its lower part, corpus_max
// covers fewer terms still, and some covered terms have cmax 0.
TEST(SumBoundsTest, BracketHoldsWithZeroCmaxAndOutOfVocabularyKeywords) {
  Rng rng(2468);
  for (int trial = 0; trial < 400; ++trial) {
    const TermId object_vocab = 16;
    const size_t cmax_size = 20;  // terms 20..23 are out of vocabulary
    std::vector<TermVector> objects, users;
    const size_t no = 1 + rng.UniformInt(uint64_t{4});
    const size_t nu = 1 + rng.UniformInt(uint64_t{4});
    for (size_t i = 0; i < no; ++i) {
      objects.push_back(
          WithoutTerms(RandomDoc(&rng, rng.Uniform(0.2, 0.6), 1.0f),
                       object_vocab));
    }
    const TermVector common = RandomKeywordSet(&rng, 0.1);
    for (size_t i = 0; i < nu; ++i) {
      users.push_back(TermVector::UnionMax(
          common, RandomKeywordSet(&rng, rng.Uniform(0.05, 0.3))));
    }
    // Terms 16..19 have cmax 0: no object carries them.
    std::vector<float> cmax = ComputeCorpusMaxWeights(objects, cmax_size);
    TextSimilarity sim(TextMeasure::kSum, &cmax);
    const TextSummary so = Summarize(objects);
    const TextSummary su = Summarize(users);
    const double lo = sim.MinSim(so, su);
    const double hi = sim.MaxSim(so, su);
    for (const TermVector& o : objects) {
      for (const TermVector& u : users) {
        const double s = sim.Sim(o, u);
        EXPECT_LE(lo, s) << "trial=" << trial;
        EXPECT_GE(hi, s) << "trial=" << trial;
      }
    }
  }
}

// The kSum bound restated term by term, the straightforward way: look every
// user term up, gather all of them, sort, and run the greedy. The prepared
// bound skips terms that cannot matter and short-cuts the lower bound; it
// must agree with this bit-for-bit.
struct RefTerm {
  double num;
  double den;
  TermId term;
};

double ReferenceSumBound(const TextSummary& object, const TextSummary& user,
                         const std::vector<float>& cmax, bool upper) {
  const TermVector& side = upper ? object.uni : object.intr;
  double num = 0.0, den = 0.0;
  bool any_required = false;
  bool zero_optional = false;
  std::vector<RefTerm> optional;
  for (const TermWeight& e : user.uni.entries()) {
    const double w = side.Get(e.term);
    const double c = e.term < cmax.size() ? cmax[e.term] : 0.0;
    const bool required = user.intr.Contains(e.term);
    any_required = any_required || required;
    if (c <= 0.0) {
      if (w > 0.0 && (upper || required)) return upper ? 1.0 : 0.0;
      zero_optional = zero_optional || !required;
      continue;
    }
    if (required) {
      num += w;
      den += c;
    } else {
      optional.push_back({w, c, e.term});
    }
  }
  if (!upper && (any_required ? den <= 0.0 : zero_optional)) return 0.0;
  std::sort(optional.begin(), optional.end(),
            [upper](const RefTerm& a, const RefTerm& b) {
              const double lhs = a.num * b.den;
              const double rhs = b.num * a.den;
              if (lhs != rhs) return upper ? lhs > rhs : lhs < rhs;
              return a.term < b.term;
            });
  size_t start = 0;
  if (!any_required || den <= 0.0) {
    if (optional.empty()) return 0.0;
    num = optional[0].num;
    den = optional[0].den;
    start = 1;
  }
  for (size_t i = start; i < optional.size(); ++i) {
    const RefTerm& t = optional[i];
    const bool improves =
        upper ? t.num * den > num * t.den : t.num * den < num * t.den;
    if (!improves) break;
    num += t.num;
    den += t.den;
  }
  return std::clamp(num / den, 0.0, 1.0);
}

/// A random document over `vocab` terms whose weights come from a small set,
/// so that equal num/cmax ratios are common.
TermVector TiedDoc(Rng* rng, TermId vocab, double density) {
  static constexpr float kWeights[] = {0.25f, 0.5f, 1.0f};
  std::vector<TermWeight> entries;
  for (TermId t = 0; t < vocab; ++t) {
    if (rng->Bernoulli(density)) {
      entries.push_back({t, kWeights[rng->UniformInt(uint64_t{3})]});
    }
  }
  return TermVector::FromSorted(std::move(entries));
}

TermVector RandomTerms(Rng* rng, TermId vocab, double density) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < vocab; ++t) {
    if (rng->Bernoulli(density)) terms.push_back(t);
  }
  return TermVector::FromTerms(terms);
}

// Prepared user sides against many object summaries: required terms, ratio
// ties, zero-cmax and out-of-vocabulary keywords, and both skewed shapes of
// the object walk (a long union against a few keywords, and the reverse).
TEST(PreparedBoundsTest, SumBoundsMatchReferenceBitForBit) {
  Rng rng(1357);
  for (int trial = 0; trial < 300; ++trial) {
    const TermId vocab = trial % 3 == 0 ? 400 : 24;
    std::vector<float> cmax(vocab - vocab / 8);  // the top ids are OOV
    for (float& c : cmax) {
      c = rng.Bernoulli(0.1) ? 0.0f : (rng.Bernoulli(0.5) ? 0.5f : 1.0f);
    }
    TextSimilarity sim(TextMeasure::kSum, &cmax);
    const double user_density = trial % 6 == 0 ? 0.8 : rng.Uniform(0.02, 0.4);
    const TermVector common = RandomTerms(&rng, vocab, user_density / 4);
    std::vector<TermVector> users;
    for (size_t i = 0; i < 1 + rng.UniformInt(uint64_t{4}); ++i) {
      users.push_back(
          TermVector::UnionMax(common, RandomTerms(&rng, vocab, user_density)));
    }
    const TextSummary su = Summarize(users);
    const PreparedSummary prepared = sim.Prepare(AsSpan(su));
    for (int o = 0; o < 20; ++o) {
      const double object_density =
          o % 4 == 0 ? 0.9 : rng.Uniform(0.01, 0.5);
      std::vector<TermVector> docs;
      for (size_t i = 0; i < 1 + rng.UniformInt(uint64_t{3}); ++i) {
        docs.push_back(TiedDoc(&rng, vocab, object_density));
      }
      const TextSummary so = Summarize(docs);
      const SummarySpan span = AsSpan(so);
      for (bool upper : {true, false}) {
        const double expected = ReferenceSumBound(so, su, cmax, upper);
        const double got = upper ? sim.MaxSim(span, prepared)
                                 : sim.MinSim(span, prepared);
        const double one_shot =
            upper ? sim.MaxSim(so, su) : sim.MinSim(so, su);
        EXPECT_EQ(got, expected) << "trial=" << trial << " upper=" << upper;
        EXPECT_EQ(one_shot, expected) << "trial=" << trial;
      }
    }
  }
}

TEST(PreparedBoundsTest, SymmetricMeasuresMatchOneShotBitForBit) {
  for (TextMeasure measure :
       {TextMeasure::kExtendedJaccard, TextMeasure::kCosine}) {
    TextSimilarity sim(measure);
    Rng rng(97 + static_cast<int>(measure));
    for (int trial = 0; trial < 200; ++trial) {
      const TextSummary su = Summarize(
          {RandomDoc(&rng, 0.4, 2.0f), RandomDoc(&rng, 0.4, 2.0f)});
      const PreparedSummary prepared = sim.Prepare(AsSpan(su));
      const TextSummary so = Summarize(
          {RandomDoc(&rng, 0.3, 2.0f), RandomDoc(&rng, 0.3, 2.0f)});
      EXPECT_EQ(sim.MaxSim(AsSpan(so), prepared), sim.MaxSim(so, su));
      EXPECT_EQ(sim.MinSim(AsSpan(so), prepared), sim.MinSim(so, su));
    }
  }
}

// SimFromParts rebuilds Sim from the pieces joint top-k's candidate rows
// hold; the two must agree bit-for-bit for every measure.
TEST(SimFromPartsTest, EqualsSimBitForBit) {
  Rng rng(8642);
  std::vector<float> cmax(kVocab);
  for (float& c : cmax) c = static_cast<float>(rng.Uniform(0.0, 2.0));
  cmax[3] = 0.0f;
  for (TextMeasure measure : {TextMeasure::kExtendedJaccard,
                              TextMeasure::kCosine, TextMeasure::kSum}) {
    TextSimilarity sim(measure, &cmax);
    for (int trial = 0; trial < 300; ++trial) {
      const TermVector o = RandomDoc(&rng, rng.Uniform(0.0, 0.6), 2.0f);
      const TermVector u = measure == TextMeasure::kSum
                               ? RandomKeywordSet(&rng, rng.Uniform(0.0, 0.4))
                               : RandomDoc(&rng, rng.Uniform(0.0, 0.6), 2.0f);
      double cross = 0.0;
      for (const TermWeight& e : u.entries()) {
        const double uw = measure == TextMeasure::kSum ? 1.0 : e.weight;
        cross += static_cast<double>(o.Get(e.term)) * uw;
      }
      EXPECT_EQ(sim.SimFromParts(cross, o.NormSquared(), sim.UserNorm(u)),
                sim.Sim(o, u))
          << TextMeasureName(measure) << " trial=" << trial;
    }
  }
}

TEST(StScorerBoundsTest, ScoreBoundsBracketContainedPairs) {
  Rng rng(555);
  TextSimilarity ej(TextMeasure::kExtendedJaccard);
  for (double alpha : {0.0, 0.3, 0.7, 1.0}) {
    StScorer scorer(&ej, {alpha, 30.0});
    for (int trial = 0; trial < 100; ++trial) {
      const Rect ra =
          Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                            rng.Uniform(-10, 10), rng.Uniform(-10, 10));
      const Rect rb =
          Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                            rng.Uniform(-10, 10), rng.Uniform(-10, 10));
      std::vector<TermVector> da = {RandomDoc(&rng, 0.3, 1.5f),
                                    RandomDoc(&rng, 0.3, 1.5f)};
      std::vector<TermVector> db = {RandomDoc(&rng, 0.3, 1.5f),
                                    RandomDoc(&rng, 0.3, 1.5f)};
      const TextSummary sa = Summarize(da);
      const TextSummary sb = Summarize(db);
      const double lo = scorer.MinScore(ra, sa, rb, sb);
      const double hi = scorer.MaxScore(ra, sa, rb, sb);
      for (int s = 0; s < 10; ++s) {
        const Point pa{rng.Uniform(ra.min_x, ra.max_x),
                       rng.Uniform(ra.min_y, ra.max_y)};
        const Point pb{rng.Uniform(rb.min_x, rb.max_x),
                       rng.Uniform(rb.min_y, rb.max_y)};
        for (const TermVector& va : da) {
          for (const TermVector& vb : db) {
            const double score = scorer.Score(pa, va, pb, vb);
            EXPECT_LE(lo, score + 1e-9) << "alpha=" << alpha;
            EXPECT_GE(hi, score - 1e-9) << "alpha=" << alpha;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rst
