#ifndef RST_OBS_METRICS_H_
#define RST_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rst/common/mutex.h"
#include "rst/common/status.h"
#include "rst/common/thread_annotations.h"

namespace rst::obs {

class JsonValue;
class JsonWriter;
class MetricRegistry;

/// Fixed bucket layout of a histogram: ascending upper bounds. A value v
/// lands in the first bucket whose bound satisfies v <= bound; values above
/// bounds.back() land in the implicit overflow bucket.
struct HistogramSpec {
  std::vector<double> bounds;

  /// bounds = first, first*factor, first*factor^2, ... (count bounds).
  static HistogramSpec Exponential(double first, double factor, size_t count);
  /// bounds = first, first+width, first+2*width, ... (count bounds).
  static HistogramSpec Linear(double first, double width, size_t count);

  /// Default latency layout: 1 µs .. ~4 s, factor 4.
  static HistogramSpec LatencyMs();
};

/// Immutable merged view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  ///< bounds.size() + 1; last = overflow
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< observed extremes; 0 when count == 0
  double max = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Upper-bound estimate of the p-quantile (p in [0, 1]) read off the
  /// cumulative bucket counts; the overflow bucket reports the observed max.
  double Percentile(double p) const;
};

/// Single-writer histogram value type. Used standalone for offline
/// aggregation (corpus statistics in the CLI) and as the snapshot/merge
/// carrier of the registry's sharded histograms.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);

  void Record(double value);
  /// Accumulates another snapshot. Mismatched bucket bounds are rejected
  /// with InvalidArgument and the histogram is left untouched — merging
  /// incompatible layouts would silently credit counts to wrong buckets.
  Status Merge(const HistogramSnapshot& other);

  uint64_t count() const { return snap_.count; }
  double sum() const { return snap_.sum; }
  const HistogramSnapshot& snapshot() const { return snap_; }
  double Percentile(double p) const { return snap_.Percentile(p); }

 private:
  HistogramSnapshot snap_;
};

/// Merged point-in-time view of a whole registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counters and histogram bucket counts/sums minus `base` (for per-query
  /// deltas); gauges and histogram min/max keep their current values.
  MetricsSnapshot Delta(const MetricsSnapshot& base) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
  void AppendJson(JsonWriter* writer) const;
  static Result<MetricsSnapshot> FromJson(const std::string& json);
  /// Same, from an already-parsed document — lets tooling accept both a bare
  /// snapshot and wrapper schemas (e.g. the CLI's {"metrics": {...}}) by
  /// picking the object to decode itself.
  static Result<MetricsSnapshot> FromJsonValue(const JsonValue& root);
};

/// Handle to a named monotonic counter. Cheap to copy; a default-constructed
/// handle is a no-op sink. Add() is lock-free (a relaxed atomic add on a
/// per-thread stripe), so later parallel-query work inherits it for free.
class Counter {
 public:
  Counter() = default;
  void Add(uint64_t n) const;
  void Increment() const { Add(1); }
  uint64_t Value() const;

 private:
  friend class MetricRegistry;
  struct Impl;
  explicit Counter(Impl* impl) : impl_(impl) {}
  Impl* impl_ = nullptr;
};

/// Handle to a named gauge (last-writer-wins double).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value) const;
  double Value() const;

 private:
  friend class MetricRegistry;
  struct Impl;
  explicit Gauge(Impl* impl) : impl_(impl) {}
  Impl* impl_ = nullptr;
};

/// Handle to a named registry histogram. Record() is lock-free.
class HistogramRef {
 public:
  HistogramRef() = default;
  void Record(double value) const;

 private:
  friend class MetricRegistry;
  struct Impl;
  explicit HistogramRef(Impl* impl) : impl_(impl) {}
  Impl* impl_ = nullptr;
};

/// Process-wide metric registry. Registration (GetCounter/GetGauge/
/// GetHistogram) takes a mutex and should be done once per call site (cache
/// the handle); updates through handles are lock-free on thread-striped
/// shards; Snapshot() merges the shards.
///
/// Metric naming scheme (see DESIGN.md §7): dot-separated
/// `<subsystem>.<metric>`, e.g. `rstknn.pruned_entries`,
/// `frozen.freezes`, `iurtree.fanout`.
class MetricRegistry {
 public:
  static constexpr size_t kNumShards = 16;

  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every subsystem publishes to.
  static MetricRegistry& Global();

  /// Idempotent per name; handles stay valid for the registry's lifetime
  /// (Reset() zeroes values but keeps registrations).
  Counter GetCounter(const std::string& name) RST_EXCLUDES(mu_);
  Gauge GetGauge(const std::string& name) RST_EXCLUDES(mu_);
  /// The bucket layout is fixed by the first registration of `name`.
  HistogramRef GetHistogram(const std::string& name,
                            const HistogramSpec& spec) RST_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const RST_EXCLUDES(mu_);

  /// Zeroes every metric (registrations survive — handles held anywhere
  /// remain valid and keep working).
  ///
  /// Concurrency guarantee: safe to call while other threads update metrics
  /// through live handles, and safe relative to concurrent Snapshot()/
  /// registration (all three serialize on the registry mutex; updates stay
  /// lock-free). Every cell is zeroed with an atomic store, so no update is
  /// ever torn or lost-and-corrupted. What is NOT guaranteed under
  /// concurrent writers is a point-in-time cut: an in-flight increment may
  /// land either before the reset (zeroed with the rest) or after it
  /// (surviving into the next window), and a histogram Record racing the
  /// reset may briefly leave count/sum/min/max mutually skewed by that one
  /// sample. Quiesce writers first when an exact zero reading matters.
  void Reset() RST_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  /// mu_ guards the registration maps only; the Impl cells reached through
  /// live handles are updated lock-free (striped relaxed atomics).
  std::map<std::string, std::unique_ptr<Counter::Impl>> counters_
      RST_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge::Impl>> gauges_
      RST_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramRef::Impl>> histograms_
      RST_GUARDED_BY(mu_);
};

}  // namespace rst::obs

#endif  // RST_OBS_METRICS_H_
