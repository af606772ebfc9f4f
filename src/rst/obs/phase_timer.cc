#include "rst/obs/phase_timer.h"

#include <cstdio>

#include "rst/obs/json.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst::obs {

namespace {

const char* const kPhaseNames[kNumPhases] = {"descent", "bounds", "merge",
                                             "io", "finalize"};

/// Cached registry handles, one histogram per phase (same leaky-singleton
/// pattern as the batch runner's BatchMetrics).
struct PhaseMetrics {
  HistogramRef histograms[kNumPhases];
  Counter profiled_queries;

  static const PhaseMetrics& Get() {
    static const PhaseMetrics* metrics = [] {
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      auto* m = new PhaseMetrics();
      MetricRegistry& registry = MetricRegistry::Global();
      const char* const names[kNumPhases] = {
          names::kPhaseDescentMs, names::kPhaseBoundsMs, names::kPhaseMergeMs,
          names::kPhaseIoMs, names::kPhaseFinalizeMs};
      for (size_t i = 0; i < kNumPhases; ++i) {
        m->histograms[i] =
            registry.GetHistogram(names[i], HistogramSpec::LatencyMs());
      }
      m->profiled_queries = registry.GetCounter(names::kPhaseProfiledQueries);
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

const char* PhaseName(Phase phase) {
  return kPhaseNames[static_cast<size_t>(phase)];
}

void PhaseProfiler::Merge(const PhaseProfiler& other) {
  for (size_t p = 0; p < kNumPhases; ++p) {
    total_ms_[p] += other.total_ms_[p];
    calls_[p] += other.calls_[p];
  }
}

double PhaseProfiler::SumMs() const {
  double sum = 0.0;
  for (size_t i = 0; i < kNumPhases; ++i) sum += total_ms_[i];
  return sum;
}

void PhaseProfiler::Publish() const {
  const PhaseMetrics& metrics = PhaseMetrics::Get();
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (calls_[i] > 0) metrics.histograms[i].Record(total_ms_[i]);
  }
  metrics.profiled_queries.Increment();
}

std::string PhaseProfiler::ToString() const {
  std::string out;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (calls_[i] == 0) continue;
    char line[96];
    std::snprintf(line, sizeof(line), "%-10s %10.3f ms  x%llu\n",
                  kPhaseNames[i], total_ms_[i],
                  static_cast<unsigned long long>(calls_[i]));
    out.append(line);
  }
  return out;
}

void PhaseProfiler::AppendJson(JsonWriter* writer) const {
  writer->BeginObject();
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (calls_[i] == 0) continue;
    writer->Key(kPhaseNames[i]);
    writer->BeginObject();
    writer->Key("ms");
    writer->Double(total_ms_[i]);
    writer->Key("calls");
    writer->Uint(calls_[i]);
    writer->EndObject();
  }
  writer->EndObject();
}

}  // namespace rst::obs
