#ifndef RST_OBS_PHASE_TIMER_H_
#define RST_OBS_PHASE_TIMER_H_

// Per-phase latency attribution (DESIGN.md §12). A PhaseProfiler splits one
// query's wall time into a fixed set of phases — tree descent, summary/bound
// kernels, contribution-list merge, page IO, result finalize — with EXCLUSIVE
// (self-time) accounting: entering a nested phase pauses the enclosing one,
// so the per-phase totals of a query always sum to at most its wall time.
//
// Contrast with QueryTrace: a trace is a free-form span *tree* (names,
// counts, arbitrary nesting) built for one query you intend to look at; the
// phase profiler is a flat, fixed-arity accumulator cheap enough to leave on
// for every query of a load test, feeding per-phase latency histograms
// (rstknn.phase.*) in the global registry.
//
// Overhead contract:
//   * idle — a null profiler costs one pointer test per hook: the search
//     opens every phase through its SearchObserver, which skips a null
//     profiler (BENCH_obs.json measures the cost);
//   * attached — one steady_clock read per phase boundary plus an array
//     add; no allocation, no locks.
//
// Threading: a PhaseProfiler is single-threaded per query, exactly like
// QueryTrace. Batch execution gives each query a private one
// (rst::exec::BatchRunner) and merges them into the caller's after the join.

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <string>

namespace rst::obs {

class JsonWriter;

/// The fixed attribution buckets. Mapping from algorithm steps (DESIGN.md
/// §12.1): kDescent = entry setup + node expansion + candidate pick,
/// kBounds = competitor probes (guaranteed/potential) and their bound
/// kernels, kMerge = contribution-list build + k-th selection (the 2011
/// literal algorithm), kIo = node payload reads through a BufferPool,
/// kFinalize = answer collection + final sort.
enum class Phase : uint8_t {
  kDescent = 0,
  kBounds,
  kMerge,
  kIo,
  kFinalize,
};

inline constexpr size_t kNumPhases = 5;

/// Short stable label ("descent", "bounds", ...), used in tables and JSON.
const char* PhaseName(Phase phase);

/// Per-query phase accumulator. Enter/Exit keep a small fixed stack; time is
/// attributed to the INNERMOST open phase only (self time), so re-entering
/// the same phase or nesting kIo under kBounds never double-counts.
class PhaseProfiler {
 public:
  PhaseProfiler();

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Opens `phase`; pauses the enclosing phase if any. Depth beyond the
  /// fixed stack (8) is counted but not timed — callers never nest that deep.
  void Enter(Phase phase);
  /// Closes the innermost open phase and resumes its parent.
  void Exit();

  /// Zeroes totals and call counts (the searcher calls this per query).
  void Reset();

  /// Adds `other`'s per-phase totals and call counts to this profiler (a
  /// batch folds its per-query profilers into the caller's this way). Open
  /// phases of either profiler are left as they are.
  void Merge(const PhaseProfiler& other);

  double total_ms(Phase phase) const {
    return total_ms_[static_cast<size_t>(phase)];
  }
  uint64_t calls(Phase phase) const {
    return calls_[static_cast<size_t>(phase)];
  }
  /// Sum of every phase's self time — ≤ the query's wall time by
  /// construction (phases are disjoint sub-intervals of the query).
  double SumMs() const;

  /// Records one histogram sample per phase with calls > 0 into the global
  /// registry (rstknn.phase.<name>.ms) and bumps rstknn.phase
  /// .profiled_queries. Does not reset — call once per completed query.
  void Publish() const;

  /// Fixed-width per-phase table (ms, calls), one line per non-empty phase.
  std::string ToString() const;
  /// {"descent": {"ms": ..., "calls": ...}, ...} for non-empty phases.
  void AppendJson(JsonWriter* writer) const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr size_t kMaxDepth = 8;

  double total_ms_[kNumPhases];
  uint64_t calls_[kNumPhases];
  Phase stack_[kMaxDepth];
  size_t depth_ = 0;
  /// Nesting beyond kMaxDepth: counted so Exit() stays balanced.
  size_t overflow_ = 0;
  Clock::time_point slice_start_;
};

}  // namespace rst::obs

#endif  // RST_OBS_PHASE_TIMER_H_
