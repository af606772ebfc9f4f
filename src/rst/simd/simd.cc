#include "rst/simd/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace rst::simd {

// --- Scalar reference kernels ----------------------------------------------
//
// These are the pre-SIMD balanced two-pointer merges, verbatim. They define
// the contract every vector level must reproduce bit-for-bit: the same
// matched pairs visited in ascending term order, doubles accumulated
// left-to-right, float min/max taken with std::min/std::max semantics.

namespace {

double DotScalar(const TermWeight* a, size_t a_len, const TermWeight* b,
                 size_t b_len) {
  double dot = 0.0;
  const TermWeight* ia = a;
  const TermWeight* ib = b;
  const TermWeight* ea = a + a_len;
  const TermWeight* eb = b + b_len;
  while (ia != ea && ib != eb) {
    if (ia->term < ib->term) {
      ++ia;
    } else if (ib->term < ia->term) {
      ++ib;
    } else {
      dot += static_cast<double>(ia->weight) * ib->weight;
      ++ia;
      ++ib;
    }
  }
  return dot;
}

size_t OverlapScalar(const TermWeight* a, size_t a_len, const TermWeight* b,
                     size_t b_len) {
  size_t overlap = 0;
  const TermWeight* ia = a;
  const TermWeight* ib = b;
  const TermWeight* ea = a + a_len;
  const TermWeight* eb = b + b_len;
  while (ia != ea && ib != eb) {
    if (ia->term < ib->term) {
      ++ia;
    } else if (ib->term < ia->term) {
      ++ib;
    } else {
      ++overlap;
      ++ia;
      ++ib;
    }
  }
  return overlap;
}

size_t UnionMaxScalar(const TermWeight* a, size_t a_len, const TermWeight* b,
                      size_t b_len, TermWeight* out) {
  TermWeight* o = out;
  const TermWeight* ia = a;
  const TermWeight* ib = b;
  const TermWeight* ea = a + a_len;
  const TermWeight* eb = b + b_len;
  while (ia != ea || ib != eb) {
    if (ib == eb || (ia != ea && ia->term < ib->term)) {
      *o++ = *ia++;
    } else if (ia == ea || ib->term < ia->term) {
      *o++ = *ib++;
    } else {
      *o++ = {ia->term, std::max(ia->weight, ib->weight)};
      ++ia;
      ++ib;
    }
  }
  return static_cast<size_t>(o - out);
}

size_t IntersectMinScalar(const TermWeight* a, size_t a_len,
                          const TermWeight* b, size_t b_len, TermWeight* out) {
  TermWeight* o = out;
  const TermWeight* ia = a;
  const TermWeight* ib = b;
  const TermWeight* ea = a + a_len;
  const TermWeight* eb = b + b_len;
  while (ia != ea && ib != eb) {
    if (ia->term < ib->term) {
      ++ia;
    } else if (ib->term < ia->term) {
      ++ib;
    } else {
      const float w = std::min(ia->weight, ib->weight);
      if (w > 0.0f) *o++ = {ia->term, w};
      ++ia;
      ++ib;
    }
  }
  return static_cast<size_t>(o - out);
}

constexpr Kernels kScalarKernels = {
    DotScalar, OverlapScalar, UnionMaxScalar, IntersectMinScalar,
    Level::kScalar};

}  // namespace

// --- Level detection and dispatch ------------------------------------------

#if defined(__x86_64__) && defined(RST_SIMD_HAVE_AVX2)
extern const Kernels kAvx2Kernels;  // kernels_avx2.cc
#endif

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Level CompiledLevel() {
#if defined(__x86_64__) && defined(RST_SIMD_HAVE_AVX2)
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

Level DetectedLevel() {
#if defined(__x86_64__) && defined(RST_SIMD_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

const Kernels& KernelsFor(Level level) {
  if (level == Level::kScalar) return kScalarKernels;
#if defined(__x86_64__) && defined(RST_SIMD_HAVE_AVX2)
  if (level == Level::kAvx2 && DetectedLevel() == Level::kAvx2) {
    return kAvx2Kernels;
  }
#endif
  return kScalarKernels;
}

namespace {

/// Level chosen at first use: hardware detection, capped to scalar when
/// RST_FORCE_SCALAR is set (the testing/debugging escape hatch). Reading the
/// environment once per process keeps dispatch a pure function of (binary,
/// host, env) — never of timing.
const Kernels& ResolveStartupKernels() {
  // getenv is not written to after startup anywhere in this codebase, and
  // this runs once under the magic-static guard of ActiveSlot().
  const char* force = std::getenv("RST_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return kScalarKernels;
  }
  return KernelsFor(DetectedLevel());
}

std::atomic<const Kernels*>& ActiveSlot() {
  static std::atomic<const Kernels*> slot{&ResolveStartupKernels()};
  return slot;
}

}  // namespace

const Kernels& Active() {
  // rst-atomics: the slot only ever points at one of the immutable,
  // statically-initialized kernel tables, so a stale pointer is still a
  // valid table; no payload is published through the pointer.
  return *ActiveSlot().load(std::memory_order_relaxed);
}

Level ActiveLevel() { return Active().level; }

ScopedLevelOverride::ScopedLevelOverride(Level level)
    : previous_(&Active()) {
  // rst-atomics: test-only override; both targets are immutable tables (see
  // Active()), so relaxed stores cannot expose partial state.
  ActiveSlot().store(&KernelsFor(level), std::memory_order_relaxed);
}

ScopedLevelOverride::~ScopedLevelOverride() {
  // rst-atomics: see constructor.
  ActiveSlot().store(previous_, std::memory_order_relaxed);
}

}  // namespace rst::simd
