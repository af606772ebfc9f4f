// Microbenchmarks for the adaptive TermVector set kernels on skewed inputs —
// the shape the RSTkNN hot path actually sees (a short query document probed
// against fat node-summary vectors). Each adaptive kernel is paired with an
// inline classic two-pointer reference so the galloping win is measured
// against the exact code it replaced, in the same binary and flags.

#include <benchmark/benchmark.h>

#include <cstring>

#include "rst/common/rng.h"
#include "rst/simd/simd.h"
#include "rst/text/term_vector.h"

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

/// The pre-galloping linear merge, kept verbatim as the baseline.
double LinearDot(const TermVector& a, const TermVector& b) {
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

size_t LinearOverlap(const TermVector& a, const TermVector& b) {
  const TermWeight* pa = a.entries().data();
  const TermWeight* ea = pa + a.size();
  const TermWeight* pb = b.entries().data();
  const TermWeight* eb = pb + b.size();
  size_t n = 0;
  while (pa != ea && pb != eb) {
    if (pa->term < pb->term) {
      ++pa;
    } else if (pb->term < pa->term) {
      ++pb;
    } else {
      ++n;
      ++pa;
      ++pb;
    }
  }
  return n;
}

// state.range(0) = small side, state.range(1) = large side. The interesting
// rows are the skewed ones (8 vs 512/4096); the balanced row checks that the
// adaptive dispatch does not regress the linear case it falls back to.
void SkewArgs(benchmark::internal::Benchmark* b) {
  b->Args({64, 64})->Args({8, 512})->Args({8, 4096})->Args({3, 4096});
}

void BM_DotAdaptive(benchmark::State& state) {
  Rng rng(11);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) benchmark::DoNotOptimize(a.Dot(b));
}
BENCHMARK(BM_DotAdaptive)->Apply(SkewArgs);

void BM_DotLinearRef(benchmark::State& state) {
  Rng rng(11);  // same seed: identical inputs as the adaptive row
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) benchmark::DoNotOptimize(LinearDot(a, b));
}
BENCHMARK(BM_DotLinearRef)->Apply(SkewArgs);

void BM_OverlapAdaptive(benchmark::State& state) {
  Rng rng(12);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) benchmark::DoNotOptimize(a.OverlapCount(b));
}
BENCHMARK(BM_OverlapAdaptive)->Apply(SkewArgs);

void BM_OverlapLinearRef(benchmark::State& state) {
  Rng rng(12);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) benchmark::DoNotOptimize(LinearOverlap(a, b));
}
BENCHMARK(BM_OverlapLinearRef)->Apply(SkewArgs);

// Span-kernel rows: the (const TermWeight*, size_t) overloads the frozen
// flat-layout index calls on pool slices. The member methods delegate to
// these same kernels, so each row first asserts bit-exact agreement — the
// benchmark doubles as the span/vector equivalence check.
void BM_DotSpan(benchmark::State& state) {
  Rng rng(11);  // same seed: identical inputs as BM_DotAdaptive
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  if (DotSpan(a.entries().data(), a.size(), b.entries().data(), b.size()) !=
      a.Dot(b)) {
    state.SkipWithError("DotSpan diverged from TermVector::Dot");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DotSpan(a.entries().data(), a.size(), b.entries().data(), b.size()));
  }
}
BENCHMARK(BM_DotSpan)->Apply(SkewArgs);

void BM_OverlapSpan(benchmark::State& state) {
  Rng rng(12);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  if (OverlapCountSpan(a.entries().data(), a.size(), b.entries().data(),
                       b.size()) != a.OverlapCount(b)) {
    state.SkipWithError("OverlapCountSpan diverged from OverlapCount");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapCountSpan(a.entries().data(), a.size(),
                                              b.entries().data(), b.size()));
  }
}
BENCHMARK(BM_OverlapSpan)->Apply(SkewArgs);

void BM_NormSquaredSpan(benchmark::State& state) {
  Rng rng(16);
  const TermVector a = MakeDoc(&rng, state.range(1), 8192);
  if (NormSquaredSpan(a.entries().data(), a.size()) != a.NormSquared()) {
    state.SkipWithError("NormSquaredSpan diverged from NormSquared");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormSquaredSpan(a.entries().data(), a.size()));
  }
}
BENCHMARK(BM_NormSquaredSpan)->Apply(SkewArgs);

void BM_IntersectMinSkewed(benchmark::State& state) {
  Rng rng(13);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermVector::IntersectMin(a, b));
  }
}
BENCHMARK(BM_IntersectMinSkewed)->Apply(SkewArgs);

void BM_UnionMaxSkewed(benchmark::State& state) {
  Rng rng(14);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermVector::UnionMax(a, b));
  }
}
BENCHMARK(BM_UnionMaxSkewed)->Apply(SkewArgs);

void BM_RestrictSkewed(benchmark::State& state) {
  Rng rng(15);
  const TermVector a = MakeDoc(&rng, state.range(0), 8192);
  const TermVector b = MakeDoc(&rng, state.range(1), 8192);
  for (auto _ : state) benchmark::DoNotOptimize(b.Restrict(a));
}
BENCHMARK(BM_RestrictSkewed)->Apply(SkewArgs);

// --- SIMD dispatch rows ----------------------------------------------------
// The same member kernels with dispatch pinned via simd::ScopedLevelOverride:
// scalar=0 rows run the detected level (AVX2 where the CPU has it), scalar=1
// rows pin the scalar reference on identical inputs. Each row first asserts
// the two levels agree bitwise — the bench doubles as an equality check.
//
// dist arg: 0=uniform (512v512, ~10% shared), 1=skewed (8v4096 — gallops in
// every dispatch mode, so its rows should tie), 2=high-overlap (512v512,
// ~91% shared), 3=disjoint (512v512, separated id ranges — the vector
// block screen's best case).

TermVector MakeDocOffset(Rng* rng, size_t terms, size_t vocab, TermId base) {
  std::vector<TermWeight> entries;
  for (size_t pick : rng->SampleWithoutReplacement(vocab, terms)) {
    entries.push_back({base + static_cast<TermId>(pick),
                       static_cast<float>(rng->Uniform(0.05, 1.0))});
  }
  return TermVector::FromUnsorted(std::move(entries));
}

const char* DistName(int64_t dist) {
  switch (dist) {
    case 1: return "skewed";
    case 2: return "high_overlap";
    case 3: return "disjoint";
    default: return "uniform";
  }
}

std::pair<TermVector, TermVector> MakeDistPair(int64_t dist, uint64_t seed) {
  Rng rng(seed);
  switch (dist) {
    case 1:
      return {MakeDocOffset(&rng, 8, 8192, 0),
              MakeDocOffset(&rng, 4096, 8192, 0)};
    case 2:  // 512 draws from a 560-term vocab: ~91% expected shared terms
      return {MakeDocOffset(&rng, 512, 560, 0),
              MakeDocOffset(&rng, 512, 560, 0)};
    case 3:
      return {MakeDocOffset(&rng, 512, 4096, 0),
              MakeDocOffset(&rng, 512, 4096, 8192)};
    default:
      return {MakeDocOffset(&rng, 512, 5120, 0),
              MakeDocOffset(&rng, 512, 5120, 0)};
  }
}

void DispatchArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"dist", "scalar"});
  b->ArgsProduct({{0, 1, 2, 3}, {0, 1}});
}

simd::Level RowLevel(const benchmark::State& state) {
  return state.range(1) != 0 ? simd::Level::kScalar : simd::DetectedLevel();
}

bool SameEntries(const TermVector& x, const TermVector& y) {
  return x.size() == y.size() &&
         std::memcmp(x.entries().data(), y.entries().data(),
                     x.size() * sizeof(TermWeight)) == 0;
}

void BM_DotDispatch(benchmark::State& state) {
  const auto [a, b] = MakeDistPair(state.range(0), 31);
  double expected;
  {
    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    expected = a.Dot(b);
  }
  simd::ScopedLevelOverride guard(RowLevel(state));
  const double actual = a.Dot(b);
  if (std::memcmp(&expected, &actual, sizeof expected) != 0) {
    state.SkipWithError("Dot not bitwise-identical across dispatch levels");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.Dot(b));
  state.SetLabel(std::string(DistName(state.range(0))) + "/" +
                 simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_DotDispatch)->Apply(DispatchArgs);

void BM_OverlapDispatch(benchmark::State& state) {
  const auto [a, b] = MakeDistPair(state.range(0), 32);
  size_t expected;
  {
    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    expected = a.OverlapCount(b);
  }
  simd::ScopedLevelOverride guard(RowLevel(state));
  if (a.OverlapCount(b) != expected) {
    state.SkipWithError("OverlapCount diverged across dispatch levels");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.OverlapCount(b));
  state.SetLabel(std::string(DistName(state.range(0))) + "/" +
                 simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_OverlapDispatch)->Apply(DispatchArgs);

void BM_IntersectMinDispatch(benchmark::State& state) {
  const auto [a, b] = MakeDistPair(state.range(0), 33);
  TermVector expected;
  {
    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    expected = TermVector::IntersectMin(a, b);
  }
  simd::ScopedLevelOverride guard(RowLevel(state));
  if (!SameEntries(TermVector::IntersectMin(a, b), expected)) {
    state.SkipWithError("IntersectMin diverged across dispatch levels");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermVector::IntersectMin(a, b));
  }
  state.SetLabel(std::string(DistName(state.range(0))) + "/" +
                 simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_IntersectMinDispatch)->Apply(DispatchArgs);

void BM_UnionMaxDispatch(benchmark::State& state) {
  const auto [a, b] = MakeDistPair(state.range(0), 34);
  TermVector expected;
  {
    simd::ScopedLevelOverride scalar(simd::Level::kScalar);
    expected = TermVector::UnionMax(a, b);
  }
  simd::ScopedLevelOverride guard(RowLevel(state));
  if (!SameEntries(TermVector::UnionMax(a, b), expected)) {
    state.SkipWithError("UnionMax diverged across dispatch levels");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(TermVector::UnionMax(a, b));
  state.SetLabel(std::string(DistName(state.range(0))) + "/" +
                 simd::LevelName(simd::ActiveLevel()));
}
BENCHMARK(BM_UnionMaxDispatch)->Apply(DispatchArgs);

}  // namespace
}  // namespace rst
