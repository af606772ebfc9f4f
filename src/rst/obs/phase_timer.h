#ifndef RST_OBS_PHASE_TIMER_H_
#define RST_OBS_PHASE_TIMER_H_

// Per-phase latency attribution (DESIGN.md §12). A PhaseProfiler splits one
// query's wall time into a fixed set of phases — tree descent, summary/bound
// kernels, contribution-list merge, page IO, result finalize. It keeps no
// clock of its own: the search times each of its regions once into a
// per-query record (rst::rstknn_internal::SearchObserver) and adds every row
// to the row's phase here when it returns. The regions are disjoint — a
// debug check asserts that they never nest — so the per-phase totals of a
// query always sum to at most its wall time.
//
// Contrast with QueryTrace: a trace is a free-form span *tree* (names,
// counts, arbitrary nesting) built for one query you intend to look at; the
// phase profiler is a flat, fixed-arity accumulator cheap enough to leave on
// for every query of a load test, feeding per-phase latency histograms
// (rstknn.phase.*) in the global registry.
//
// Overhead contract:
//   * idle — with neither a profiler nor a trace attached the search reads
//     no clock: each region costs one flag test (BENCH_obs.json measures
//     the cost);
//   * attached — one steady_clock pair per region plus a few adds into a
//     fixed array; no allocation, no locks.
//
// Threading: a PhaseProfiler is single-threaded, exactly like QueryTrace.
// Batch execution gives each query a private one and folds them into its
// worker's, then merges the workers' into the caller's after the join
// (rst::exec::BatchRunner).

#include <cstddef>
#include <cstdint>
#include <string>

namespace rst::obs {

class JsonWriter;

/// The fixed attribution buckets. Mapping from algorithm steps (DESIGN.md
/// §12.1): kDescent = entry setup + node expansion + candidate pick,
/// kBounds = competitor probes (guaranteed/potential) and their bound
/// kernels, kMerge = contribution-list build + k-th selection (the 2011
/// literal algorithm), kIo = no search step (searches charge simulated I/O
/// and read no pages; the bucket stays so rstknn.phase.io_ms keeps its name
/// for perfbench, and always reads 0), kFinalize = answer collection +
/// final sort.
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

/// Per-phase accumulator of milliseconds and call counts.
class PhaseProfiler {
 public:
  /// Adds `ms` of time and `calls` region entries to `phase`.
  void Add(Phase phase, double ms, uint64_t calls) {
    total_ms_[static_cast<size_t>(phase)] += ms;
    calls_[static_cast<size_t>(phase)] += calls;
  }

  /// Zeroes totals and call counts (the searcher calls this per query).
  void Reset() { *this = PhaseProfiler(); }

  /// Adds `other`'s per-phase totals and call counts to this profiler (a
  /// batch folds its workers' profilers into the caller's this way).
  void Merge(const PhaseProfiler& other);

  double total_ms(Phase phase) const {
    return total_ms_[static_cast<size_t>(phase)];
  }
  uint64_t calls(Phase phase) const {
    return calls_[static_cast<size_t>(phase)];
  }
  /// Sum of every phase's time — ≤ the query's wall time, since the search
  /// regions it adds up are disjoint sub-intervals of the query.
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
  double total_ms_[kNumPhases] = {};
  uint64_t calls_[kNumPhases] = {};
};

}  // namespace rst::obs

#endif  // RST_OBS_PHASE_TIMER_H_
