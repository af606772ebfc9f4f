// Microbenchmarks for the similarity kernels — the inner loops of every
// query algorithm in the library.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "rst/common/rng.h"
#include "rst/simd/simd.h"
#include "rst/text/similarity.h"
#include "rst/text/weighting.h"

namespace rst {
namespace {

TermVector MakeDoc(Rng* rng, size_t terms, size_t vocab) {
  std::vector<TermWeight> entries;
  for (size_t pick : rng->SampleWithoutReplacement(vocab, terms)) {
    entries.push_back({static_cast<TermId>(pick),
                       static_cast<float>(rng->Uniform(0.05, 1.0))});
  }
  return TermVector::FromUnsorted(std::move(entries));
}

void BM_Dot(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  const TermVector a = MakeDoc(&rng, n, n * 10);
  const TermVector b = MakeDoc(&rng, n, n * 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(b));
  }
}
BENCHMARK(BM_Dot)->Arg(8)->Arg(64)->Arg(512);

/// The classic two-pointer merge, inlined as the reference the adaptive
/// (galloping) dispatch in TermVector::Dot must beat on skewed inputs.
double TwoPointerDot(const TermVector& a, const TermVector& b) {
  const TermWeight* pa = a.entries().data();
  const TermWeight* ea = pa + a.size();
  const TermWeight* pb = b.entries().data();
  const TermWeight* eb = pb + b.size();
  double dot = 0.0;
  while (pa != ea && pb != eb) {
    if (pa->term < pb->term) {
      ++pa;
    } else if (pb->term < pa->term) {
      ++pb;
    } else {
      dot += static_cast<double>(pa->weight) * pb->weight;
      ++pa;
      ++pb;
    }
  }
  return dot;
}

// Skewed intersection: a short query document (8 terms) against a fat node
// summary (range(0) terms) — the dominant shape in IUR-tree bound work.
void BM_DotSkewed(benchmark::State& state) {
  Rng rng(21);
  const TermVector small = MakeDoc(&rng, 8, 8192);
  const TermVector large =
      MakeDoc(&rng, static_cast<size_t>(state.range(0)), 8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.Dot(large));
  }
}
BENCHMARK(BM_DotSkewed)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DotSkewedTwoPointer(benchmark::State& state) {
  Rng rng(21);  // same seed: identical inputs as BM_DotSkewed
  const TermVector small = MakeDoc(&rng, 8, 8192);
  const TermVector large =
      MakeDoc(&rng, static_cast<size_t>(state.range(0)), 8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoPointerDot(small, large));
  }
}
BENCHMARK(BM_DotSkewedTwoPointer)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ExtendedJaccardSim(benchmark::State& state) {
  Rng rng(2);
  const size_t n = static_cast<size_t>(state.range(0));
  const TermVector a = MakeDoc(&rng, n, n * 10);
  const TermVector b = MakeDoc(&rng, n, n * 10);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Sim(a, b));
  }
}
BENCHMARK(BM_ExtendedJaccardSim)->Arg(8)->Arg(64)->Arg(512);

void BM_ExtendedJaccardBounds(benchmark::State& state) {
  Rng rng(3);
  const size_t n = static_cast<size_t>(state.range(0));
  TextSummary a = TextSummary::FromDoc(MakeDoc(&rng, n, n * 10));
  TextSummary b = TextSummary::FromDoc(MakeDoc(&rng, n, n * 10));
  for (int i = 0; i < 8; ++i) {
    a = TextSummary::Merge(a, TextSummary::FromDoc(MakeDoc(&rng, n, n * 10)));
    b = TextSummary::Merge(b, TextSummary::FromDoc(MakeDoc(&rng, n, n * 10)));
  }
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.MaxSim(a, b));
    benchmark::DoNotOptimize(sim.MinSim(a, b));
  }
}
BENCHMARK(BM_ExtendedJaccardBounds)->Arg(8)->Arg(64);

/// A kSum bound workload: an 8-document object summary of `n`-term
/// documents, and a user side of `user_terms` distinct keywords spread over
/// 3-keyword users (an empty intersection, like a joint top-k super-user).
struct SumBoundsInput {
  std::vector<float> cmax;
  TextSummary object;
  TextSummary user;
};

SumBoundsInput MakeSumBoundsInput(size_t n, size_t user_terms) {
  Rng rng(4);
  SumBoundsInput in;
  std::vector<TermVector> docs;
  for (int i = 0; i < 8; ++i) docs.push_back(MakeDoc(&rng, n, n * 10));
  in.cmax = ComputeCorpusMaxWeights(docs, n * 10);
  for (const TermVector& d : docs) {
    in.object = TextSummary::Merge(in.object, TextSummary::FromDoc(d));
  }
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(n * 10, user_terms);
  for (size_t i = 0; i < picks.size(); i += 3) {
    std::vector<TermId> terms;
    for (size_t j = i; j < std::min(i + 3, picks.size()); ++j) {
      terms.push_back(static_cast<TermId>(picks[j]));
    }
    in.user = TextSummary::Merge(
        in.user, TextSummary::FromDoc(TermVector::FromTerms(terms)));
  }
  return in;
}

/// One-shot bounds: every call prepares the user side again.
void BM_SumMeasureBounds(benchmark::State& state) {
  const SumBoundsInput in =
      MakeSumBoundsInput(static_cast<size_t>(state.range(0)),
                         static_cast<size_t>(state.range(1)));
  TextSimilarity sim(TextMeasure::kSum, &in.cmax);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.MaxSim(in.object, in.user));
    benchmark::DoNotOptimize(sim.MinSim(in.object, in.user));
  }
}
BENCHMARK(BM_SumMeasureBounds)
    ->ArgNames({"n", "user_terms"})
    ->ArgsProduct({{8, 64}, {12, 20}});

/// The same bounds against a user side prepared once, as joint top-k's
/// traversal and a top-k search use it.
void BM_SumMeasureBoundsPrepared(benchmark::State& state) {
  const SumBoundsInput in =
      MakeSumBoundsInput(static_cast<size_t>(state.range(0)),
                         static_cast<size_t>(state.range(1)));
  TextSimilarity sim(TextMeasure::kSum, &in.cmax);
  const PreparedSummary user = sim.Prepare(AsSpan(in.user));
  const SummarySpan object = AsSpan(in.object);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.MaxSim(object, user));
    benchmark::DoNotOptimize(sim.MinSim(object, user));
  }
}
BENCHMARK(BM_SumMeasureBoundsPrepared)
    ->ArgNames({"n", "user_terms"})
    ->ArgsProduct({{8, 64}, {12, 20}});

void BM_UnionMaxIntersectMin(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  const TermVector a = MakeDoc(&rng, n, n * 4);
  const TermVector b = MakeDoc(&rng, n, n * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermVector::UnionMax(a, b));
    benchmark::DoNotOptimize(TermVector::IntersectMin(a, b));
  }
}
BENCHMARK(BM_UnionMaxIntersectMin)->Arg(8)->Arg(64)->Arg(512);

// --- SIMD dispatch rows ----------------------------------------------------
// The composite similarity paths (Sim = Dot + norms; the summary bounds run
// UnionMax/IntersectMin underneath) with dispatch pinned scalar (scalar=1)
// vs the detected level (scalar=0) on identical inputs. Balanced sizes only:
// the skewed shapes gallop through the shared scalar path in every mode and
// are covered by micro_termvector's dist=skewed rows.

void BM_ExtendedJaccardSimDispatch(benchmark::State& state) {
  Rng rng(7);
  const size_t n = static_cast<size_t>(state.range(0));
  const TermVector a = MakeDoc(&rng, n, n * 2);  // ~50% shared terms
  const TermVector b = MakeDoc(&rng, n, n * 2);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  simd::ScopedLevelOverride guard(state.range(1) != 0 ? simd::Level::kScalar
                                                      : simd::DetectedLevel());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Sim(a, b));
  }
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_ExtendedJaccardSimDispatch)
    ->ArgNames({"n", "scalar"})
    ->ArgsProduct({{64, 512}, {0, 1}});

void BM_ExtendedJaccardBoundsDispatch(benchmark::State& state) {
  Rng rng(8);
  const size_t n = static_cast<size_t>(state.range(0));
  TextSummary a = TextSummary::FromDoc(MakeDoc(&rng, n, n * 2));
  TextSummary b = TextSummary::FromDoc(MakeDoc(&rng, n, n * 2));
  for (int i = 0; i < 8; ++i) {
    a = TextSummary::Merge(a, TextSummary::FromDoc(MakeDoc(&rng, n, n * 2)));
    b = TextSummary::Merge(b, TextSummary::FromDoc(MakeDoc(&rng, n, n * 2)));
  }
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  simd::ScopedLevelOverride guard(state.range(1) != 0 ? simd::Level::kScalar
                                                      : simd::DetectedLevel());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.MaxSim(a, b));
    benchmark::DoNotOptimize(sim.MinSim(a, b));
  }
  state.SetLabel(simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_ExtendedJaccardBoundsDispatch)
    ->ArgNames({"n", "scalar"})
    ->ArgsProduct({{64, 512}, {0, 1}});

void BM_StScore(benchmark::State& state) {
  Rng rng(6);
  const TermVector a = MakeDoc(&rng, 8, 100);
  const TermVector b = MakeDoc(&rng, 8, 100);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, 100.0});
  const Point pa{1, 2}, pb{30, 40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(pa, a, pb, b));
  }
}
BENCHMARK(BM_StScore);

}  // namespace
}  // namespace rst
