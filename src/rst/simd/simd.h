#ifndef RST_SIMD_SIMD_H_
#define RST_SIMD_SIMD_H_

#include <cstddef>

#include "rst/text/term_vector.h"

namespace rst::simd {

/// Instruction-set level of the balanced sorted-merge kernels. Exactly one
/// level is active per process; the scalar kernels are the reference
/// implementation and every vector level is property-tested to produce
/// bitwise-identical results (same matched pairs, same double-accumulation
/// order), so answers, RstknnStats, and EXPLAIN JSON never depend on the
/// dispatch decision.
enum class Level {
  kScalar,  ///< portable reference — always available
  kAvx2,    ///< x86-64 AVX2 (runtime CPUID-gated)
};

const char* LevelName(Level level);

/// Balanced-merge kernel table. All kernels require both runs sorted by
/// strictly ascending term id (the TermVector invariant). The skew/gallop
/// dispatch stays *outside* this table, in the rst::DotSpan-family wrappers:
/// galloping is O(small·log large) pointer-chasing that vectorizes poorly,
/// so both dispatch modes share the one scalar galloped implementation and
/// equality across levels is only ever exercised on the balanced path.
struct Kernels {
  /// <a, b> over shared terms; doubles accumulated in ascending term order.
  double (*dot)(const TermWeight* a, size_t a_len, const TermWeight* b,
                size_t b_len);
  /// Number of shared terms.
  size_t (*overlap)(const TermWeight* a, size_t a_len, const TermWeight* b,
                    size_t b_len);
  /// Per-term max over the union of terms. `out` must hold a_len + b_len
  /// entries; returns the number written.
  size_t (*union_max)(const TermWeight* a, size_t a_len, const TermWeight* b,
                      size_t b_len, TermWeight* out);
  /// Per-term min over the intersection of terms, zero-weight results
  /// dropped. `out` must hold min(a_len, b_len) entries; returns the number
  /// written.
  size_t (*intersect_min)(const TermWeight* a, size_t a_len,
                          const TermWeight* b, size_t b_len, TermWeight* out);
  Level level = Level::kScalar;
};

/// Highest level this binary was compiled with support for.
Level CompiledLevel();

/// Highest level the running CPU supports (CPUID on x86), before any
/// override.
Level DetectedLevel();

/// The level actually in use: DetectedLevel() capped by CompiledLevel(),
/// forced to kScalar when the RST_FORCE_SCALAR environment variable is set
/// to anything but "0"/"" at first use, and overridable in-process via
/// ScopedLevelOverride. Constant between overrides.
Level ActiveLevel();

/// The active kernel table. One relaxed atomic load on the hot path.
const Kernels& Active();

/// Scoped dispatch override for tests and benchmarks: forces `level` (capped
/// at what the CPU/binary supports) for the lifetime of the object, then
/// restores the previous table. Not thread-safe against concurrent
/// overrides; queries running during the switch see one table or the other,
/// either of which yields bit-identical results by the equality contract.
class ScopedLevelOverride {
 public:
  explicit ScopedLevelOverride(Level level);
  ~ScopedLevelOverride();

  ScopedLevelOverride(const ScopedLevelOverride&) = delete;
  ScopedLevelOverride& operator=(const ScopedLevelOverride&) = delete;

 private:
  const Kernels* previous_;
};

/// Kernel table for one specific level (capped at CompiledLevel(); a level
/// the CPU cannot run falls back to scalar). Exposed so equality tests can
/// compare levels directly without touching global dispatch.
const Kernels& KernelsFor(Level level);

}  // namespace rst::simd

#endif  // RST_SIMD_SIMD_H_
