// Property tests for the rst::simd dispatch layer: every compiled-in vector
// level must produce results *bitwise* identical to the scalar reference on
// the balanced-merge kernels — same doubles, same output entries, same
// counts — across random and adversarial inputs, including every length
// combination that crosses a SIMD block boundary. The end-to-end cases then
// pin the user-visible contract: answers, stats, and EXPLAIN JSON from a
// full RSTkNN search must not depend on the dispatch level.

#include "rst/simd/simd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"
#include "rst/obs/explain.h"
#include "rst/rstknn/rstknn.h"
#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"

namespace rst {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const TermWeight& a, const TermWeight& b) {
  return a.term == b.term &&
         std::memcmp(&a.weight, &b.weight, sizeof(float)) == 0;
}

/// Sorted run of `len` strictly ascending terms starting near `base`, with
/// gaps in [1, max_gap]. `zero_weight_every` > 0 plants exact 0.0f weights
/// (legal span input; IntersectMin must drop them on both dispatch paths).
std::vector<TermWeight> MakeRun(Rng& rng, size_t len, TermId base,
                                uint32_t max_gap, int zero_weight_every) {
  std::vector<TermWeight> run;
  run.reserve(len);
  TermId term = base;
  for (size_t i = 0; i < len; ++i) {
    term += 1 + static_cast<TermId>(rng.UniformInt(uint64_t{max_gap}));
    float w = static_cast<float>(rng.Uniform(0.001, 4.0));
    if (zero_weight_every > 0 && i % static_cast<size_t>(zero_weight_every) == 0) {
      w = 0.0f;
    }
    run.push_back({term, w});
  }
  return run;
}

/// Replaces some of b's terms with terms drawn from a (keeping b sorted and
/// unique) so the two runs share matches at controllable density.
void InjectOverlap(Rng& rng, const std::vector<TermWeight>& a,
                   std::vector<TermWeight>* b, double fraction) {
  if (a.empty() || b->empty()) return;
  for (TermWeight& e : *b) {
    if (rng.NextDouble() < fraction) {
      e.term = a[rng.UniformInt(uint64_t{a.size()})].term;
    }
  }
  std::sort(b->begin(), b->end(),
            [](const TermWeight& x, const TermWeight& y) {
              return x.term < y.term;
            });
  b->erase(std::unique(b->begin(), b->end(),
                       [](const TermWeight& x, const TermWeight& y) {
                         return x.term == y.term;
                       }),
           b->end());
}

/// Asserts all four kernels of `level` agree bitwise with scalar on (a, b)
/// and on (b, a).
void CheckPair(const std::vector<TermWeight>& a,
               const std::vector<TermWeight>& b, simd::Level level) {
  const simd::Kernels& ref = simd::KernelsFor(simd::Level::kScalar);
  const simd::Kernels& vec = simd::KernelsFor(level);
  const auto check_one = [&](const std::vector<TermWeight>& x,
                             const std::vector<TermWeight>& y) {
    const TermWeight* xd = x.data();
    const TermWeight* yd = y.data();
    const size_t xn = x.size();
    const size_t yn = y.size();

    const double dot_ref = ref.dot(xd, xn, yd, yn);
    const double dot_vec = vec.dot(xd, xn, yd, yn);
    ASSERT_TRUE(BitEqual(dot_ref, dot_vec))
        << "dot mismatch: " << dot_ref << " vs " << dot_vec << " at lens "
        << xn << "," << yn;

    ASSERT_EQ(ref.overlap(xd, xn, yd, yn), vec.overlap(xd, xn, yd, yn))
        << "overlap mismatch at lens " << xn << "," << yn;

    std::vector<TermWeight> union_ref(xn + yn);
    std::vector<TermWeight> union_vec(xn + yn);
    const size_t un_ref = ref.union_max(xd, xn, yd, yn, union_ref.data());
    const size_t un_vec = vec.union_max(xd, xn, yd, yn, union_vec.data());
    ASSERT_EQ(un_ref, un_vec) << "union count mismatch";
    for (size_t i = 0; i < un_ref; ++i) {
      ASSERT_TRUE(BitEqual(union_ref[i], union_vec[i]))
          << "union entry " << i << " mismatch at lens " << xn << "," << yn;
    }

    std::vector<TermWeight> inter_ref(std::min(xn, yn));
    std::vector<TermWeight> inter_vec(std::min(xn, yn));
    const size_t in_ref = ref.intersect_min(xd, xn, yd, yn, inter_ref.data());
    const size_t in_vec = vec.intersect_min(xd, xn, yd, yn, inter_vec.data());
    ASSERT_EQ(in_ref, in_vec) << "intersect count mismatch";
    for (size_t i = 0; i < in_ref; ++i) {
      ASSERT_TRUE(BitEqual(inter_ref[i], inter_vec[i]))
          << "intersect entry " << i << " mismatch at lens " << xn << ","
          << yn;
    }
  };
  check_one(a, b);
  check_one(b, a);
}

/// Levels worth testing on this host: scalar (trivially) plus whatever the
/// CPU actually supports. On a non-AVX2 x86 host KernelsFor(kAvx2) falls
/// back to scalar, so the test degrades to a tautology rather than a crash.
std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() != simd::Level::kScalar) {
    levels.push_back(simd::DetectedLevel());
  }
  return levels;
}

TEST(SimdKernels, LaneBoundarySweepDenseOverlap) {
  // Every (a_len, b_len) in [0, 40]² crosses the AVX2 8-entry block
  // boundaries many times, with tails of every residue.
  Rng rng(42);
  for (simd::Level level : TestableLevels()) {
    for (size_t a_len = 0; a_len <= 40; ++a_len) {
      for (size_t b_len = 0; b_len <= 40; ++b_len) {
        auto a = MakeRun(rng, a_len, 0, 3, 7);
        auto b = MakeRun(rng, b_len, 0, 3, 5);
        InjectOverlap(rng, a, &b, 0.5);
        CheckPair(a, b, level);
      }
    }
  }
}

TEST(SimdKernels, LongRandomRuns) {
  Rng rng(1234);
  for (simd::Level level : TestableLevels()) {
    for (int trial = 0; trial < 50; ++trial) {
      const size_t a_len = rng.UniformInt(uint64_t{300}) + 1;
      const size_t b_len = rng.UniformInt(uint64_t{300}) + 1;
      const uint32_t gap = 1 + static_cast<uint32_t>(rng.UniformInt(uint64_t{8}));
      auto a = MakeRun(rng, a_len, 0, gap, trial % 2 == 0 ? 11 : 0);
      auto b = MakeRun(rng, b_len, 0, gap, 0);
      InjectOverlap(rng, a, &b, rng.NextDouble());
      CheckPair(a, b, level);
    }
  }
}

TEST(SimdKernels, AdversarialShapes) {
  Rng rng(7);
  const auto dense = MakeRun(rng, 64, 0, 1, 0);   // terms 1..64, no holes
  const auto sparse = MakeRun(rng, 64, 0, 9, 3);  // wide gaps, zero weights
  auto far = MakeRun(rng, 64, 1'000'000, 2, 0);   // fully disjoint range
  std::vector<TermWeight> empty;
  const std::vector<TermWeight> single = {{5, 1.5f}};
  const std::vector<TermWeight> single_hit = {{dense[10].term, 0.25f}};

  for (simd::Level level : TestableLevels()) {
    CheckPair(empty, empty, level);
    CheckPair(empty, dense, level);
    CheckPair(single, dense, level);
    CheckPair(single_hit, dense, level);
    CheckPair(dense, dense, level);    // every term shared ("all duplicates")
    CheckPair(dense, sparse, level);
    CheckPair(dense, far, level);      // disjoint: pure block-skip path
    CheckPair(sparse, far, level);
    // Block-aligned prefix identical, tails diverging: exercises the
    // both-advance-on-tie rule.
    auto a = dense;
    auto b = dense;
    b.resize(40);
    a.resize(48);
    for (size_t i = 32; i < b.size(); ++i) b[i].term += 1'000;
    std::sort(b.begin(), b.end(), [](const TermWeight& x, const TermWeight& y) {
      return x.term < y.term;
    });
    CheckPair(a, b, level);
  }
}

TEST(SimdKernels, ActiveDispatchMatchesDetection) {
  // No override in place: the startup resolution must pick the detected
  // level unless RST_FORCE_SCALAR pinned it to scalar (the CI second run).
  const char* force = std::getenv("RST_FORCE_SCALAR");
  const bool forced = force != nullptr && force[0] != '\0' &&
                      !(force[0] == '0' && force[1] == '\0');
  if (forced) {
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  } else {
    EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
  }
}

TEST(SimdKernels, ScopedOverrideSwitchesAndRestores) {
  const simd::Level before = simd::ActiveLevel();
  {
    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
    {
      simd::ScopedLevelOverride vec(simd::DetectedLevel());
      EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(SimdKernels, TermVectorOpsIdenticalAcrossDispatch) {
  // Wrapper-level equality: the public TermVector operations must yield
  // identical vectors (and identical cached norms) under every level.
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    auto ea = MakeRun(rng, 20 + rng.UniformInt(uint64_t{100}), 0, 4, 0);
    auto eb = MakeRun(rng, 20 + rng.UniformInt(uint64_t{100}), 0, 4, 0);
    InjectOverlap(rng, ea, &eb, 0.4);
    const TermVector a = TermVector::FromSorted(std::move(ea));
    const TermVector b = TermVector::FromSorted(std::move(eb));

    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    const double dot_s = a.Dot(b);
    const size_t ov_s = a.OverlapCount(b);
    const TermVector un_s = TermVector::UnionMax(a, b);
    const TermVector in_s = TermVector::IntersectMin(a, b);
    {
      simd::ScopedLevelOverride vec(simd::DetectedLevel());
      ASSERT_TRUE(BitEqual(dot_s, a.Dot(b)));
      ASSERT_EQ(ov_s, a.OverlapCount(b));
      const TermVector un_v = TermVector::UnionMax(a, b);
      const TermVector in_v = TermVector::IntersectMin(a, b);
      ASSERT_EQ(un_s.size(), un_v.size());
      ASSERT_EQ(in_s.size(), in_v.size());
      for (size_t i = 0; i < un_s.size(); ++i) {
        ASSERT_TRUE(BitEqual(un_s.entries()[i], un_v.entries()[i]));
      }
      for (size_t i = 0; i < in_s.size(); ++i) {
        ASSERT_TRUE(BitEqual(in_s.entries()[i], in_v.entries()[i]));
      }
      ASSERT_TRUE(BitEqual(un_s.NormSquared(), un_v.NormSquared()));
    }
  }
}

TEST(SimdKernels, EndToEndSearchIdenticalAcrossDispatch) {
  // Full pipeline: index build + RSTkNN search must produce the same
  // answers, the same counter values, and the same EXPLAIN JSON regardless
  // of dispatch level — the property CI relies on when it reruns the suite
  // under RST_FORCE_SCALAR=1.
  FlickrLikeConfig config;
  config.num_objects = 400;
  config.vocab_size = 150;
  config.seed = 2026;
  const Dataset dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  TextSimilarity sim(TextMeasure::kCosine);

  const auto run = [&](simd::Level level) {
    simd::ScopedLevelOverride override_level(level);
    const frozen::FrozenTree tree =
        frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));
    StScorer scorer(&sim, {0.5, dataset.max_dist()});
    RstknnSearcher searcher(&tree, &dataset, &scorer);
    struct Out {
      std::vector<ObjectId> answers;
      RstknnStats stats;
      std::string explain_json;
    } out;
    for (ObjectId qid : {ObjectId{3}, ObjectId{57}, ObjectId{123}}) {
      const StObject& qobj = dataset.object(qid);
      obs::ExplainRecorder recorder(64);
      RstknnOptions options;
      options.explain = &recorder;
      RstknnQuery query{qobj.loc, &qobj.doc, 5, qid};
      RstknnResult result = searcher.Search(query, options);
      out.answers.insert(out.answers.end(), result.answers.begin(),
                         result.answers.end());
      out.stats.Merge(result.stats);
      out.explain_json += recorder.ToJson();
    }
    return out;
  };

  const auto scalar = run(simd::Level::kScalar);
  const auto vec = run(simd::DetectedLevel());
  EXPECT_EQ(scalar.answers, vec.answers);
  EXPECT_EQ(scalar.explain_json, vec.explain_json);
  EXPECT_EQ(scalar.stats.expansions, vec.stats.expansions);
  EXPECT_EQ(scalar.stats.pruned_entries, vec.stats.pruned_entries);
  EXPECT_EQ(scalar.stats.reported_entries, vec.stats.reported_entries);
  EXPECT_EQ(scalar.stats.bound_computations, vec.stats.bound_computations);
  EXPECT_EQ(scalar.stats.probes, vec.stats.probes);
  EXPECT_EQ(scalar.stats.pq_pops, vec.stats.pq_pops);
}

}  // namespace
}  // namespace rst
