#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// Interface between the benchmark driver's entry point (main.cc) and its
// workloads (workloads.cc). README.md describes the workloads and metrics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Input sizes. kFull is what the benchmark measures; kTiny exists for the
/// smoke test, which only checks that every metric is produced.
enum class Size { kFull, kTiny };

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;  ///< answers checked against the oracle
  uint64_t failed = 0;     ///< wrong answers among them
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Printed for humans and the smoke test, never part of the result line:
  /// failed_frac, sample counts, the traced run's wall and self-time sums.
  std::vector<Metric> notes;
};

/// The three workloads. A traced run also writes its spans to stderr.
RunResult RunSpatialSerial(const RunConfig& config);
RunResult RunTextBatch(const RunConfig& config);
RunResult RunMaxbrstSites(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
