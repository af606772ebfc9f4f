#include "rst/obs/metrics.h"

#include "rst/common/check.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>

#include "rst/obs/json.h"

namespace rst::obs {

namespace {

/// Stripe picked once per thread; threads round-robin over the shards so
/// concurrent writers almost never contend on a cache line.
size_t ShardIndex() {
  static std::atomic<uint32_t> next{0};
  // rst-atomics: the round-robin ticket only spreads threads over stripes;
  // any interleaving of the increments yields a valid assignment.
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed) % MetricRegistry::kNumShards;
  return index;
}

/// Relaxed CAS add for doubles (atomic<double>::fetch_add is C++20 but not
/// universally lowered; the CAS loop is portable and uncontended here).
/// rst-atomics: metric cells are independent statistics — no reader infers
/// other data from them, so the CAS loops in AtomicAdd/Min/Max need no
/// ordering beyond atomicity itself.
void AtomicAdd(std::atomic<double>* target, double delta) {
  // rst-atomics: see note above AtomicAdd.
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  // rst-atomics: see note above AtomicAdd.
  double current = target->load(std::memory_order_relaxed);
  while (value < current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  // rst-atomics: see note above AtomicAdd.
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

struct alignas(64) CounterCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSpec / HistogramSnapshot / Histogram

HistogramSpec HistogramSpec::Exponential(double first, double factor,
                                         size_t count) {
  HistogramSpec spec;
  spec.bounds.reserve(count);
  double bound = first;
  for (size_t i = 0; i < count; ++i) {
    spec.bounds.push_back(bound);
    bound *= factor;
  }
  return spec;
}

HistogramSpec HistogramSpec::Linear(double first, double width, size_t count) {
  HistogramSpec spec;
  spec.bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    spec.bounds.push_back(first + width * static_cast<double>(i));
  }
  return spec;
}

HistogramSpec HistogramSpec::LatencyMs() {
  return Exponential(0.001, 4.0, 12);  // 1 µs .. ~4.2 s
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * count)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      return i < bounds.size() ? std::min(bounds[i], max) : max;
    }
  }
  return max;
}

Histogram::Histogram(HistogramSpec spec) {
  snap_.bounds = std::move(spec.bounds);
  RST_DCHECK(std::is_sorted(snap_.bounds.begin(), snap_.bounds.end()))
      << "histogram bucket bounds must ascend";
  snap_.counts.assign(snap_.bounds.size() + 1, 0);
}

void Histogram::Record(double value) {
  const size_t bucket =
      std::lower_bound(snap_.bounds.begin(), snap_.bounds.end(), value) -
      snap_.bounds.begin();
  ++snap_.counts[bucket];
  snap_.sum += value;
  if (snap_.count == 0) {
    snap_.min = snap_.max = value;
  } else {
    snap_.min = std::min(snap_.min, value);
    snap_.max = std::max(snap_.max, value);
  }
  ++snap_.count;
}

Status Histogram::Merge(const HistogramSnapshot& other) {
  if (other.bounds != snap_.bounds) {
    return Status::InvalidArgument(
        "histogram merge: bucket bounds mismatch (" +
        std::to_string(other.bounds.size()) + " vs " +
        std::to_string(snap_.bounds.size()) + " bounds)");
  }
  if (other.counts.size() != snap_.counts.size()) {
    return Status::InvalidArgument("histogram merge: bucket count mismatch");
  }
  for (size_t i = 0; i < snap_.counts.size(); ++i) {
    snap_.counts[i] += other.counts[i];
  }
  snap_.sum += other.sum;
  if (other.count > 0) {
    if (snap_.count == 0) {
      snap_.min = other.min;
      snap_.max = other.max;
    } else {
      snap_.min = std::min(snap_.min, other.min);
      snap_.max = std::max(snap_.max, other.max);
    }
  }
  snap_.count += other.count;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Metric impls

struct Counter::Impl {
  std::array<CounterCell, MetricRegistry::kNumShards> cells;

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const CounterCell& cell : cells) {
      // rst-atomics: stripe sums are statistics; a snapshot concurrent with
      // writers is allowed to be mid-update, so relaxed loads suffice.
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Zero() {
    for (CounterCell& cell : cells) {
      // rst-atomics: Reset() documents that a racing increment may land on
      // either side of the zeroing; no ordering needed beyond atomicity.
      cell.value.store(0, std::memory_order_relaxed);
    }
  }
};

void Counter::Add(uint64_t n) const {
  if (impl_ == nullptr) return;
  // rst-atomics: hot-path stripe increment; statistics only (see Sum).
  impl_->cells[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const { return impl_ == nullptr ? 0 : impl_->Sum(); }

struct Gauge::Impl {
  std::atomic<double> value{0.0};
};

void Gauge::Set(double value) const {
  if (impl_ == nullptr) return;
  // rst-atomics: last-writer-wins cell; readers only need a non-torn value.
  impl_->value.store(value, std::memory_order_relaxed);
}

double Gauge::Value() const {
  // rst-atomics: last-writer-wins cell; relaxed read of a single double.
  return impl_ == nullptr ? 0.0 : impl_->value.load(std::memory_order_relaxed);
}

struct HistogramRef::Impl {
  struct Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
  };

  explicit Impl(HistogramSpec s) : spec(std::move(s)) {
    for (Shard& shard : shards) {
      shard.counts =
          std::make_unique<std::atomic<uint64_t>[]>(spec.bounds.size() + 1);
      // rst-atomics: construction-time init before the impl is published via
      // the registry map (whose mutex orders publication); the defaulted
      // seq_cst assignment costs nothing here and is not a hot path.
      for (size_t i = 0; i <= spec.bounds.size(); ++i) shard.counts[i] = 0;
    }
  }

  void Record(double value) {
    const size_t bucket =
        std::lower_bound(spec.bounds.begin(), spec.bounds.end(), value) -
        spec.bounds.begin();
    Shard& shard = shards[ShardIndex()];
    // rst-atomics: bucket counts are statistics; Snapshot() tolerates a
    // mid-Record skew between counts and sum (documented on Reset()).
    shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    AtomicAdd(&shard.sum, value);
    AtomicMin(&min, value);
    AtomicMax(&max, value);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snap;
    snap.bounds = spec.bounds;
    snap.counts.assign(spec.bounds.size() + 1, 0);
    for (const Shard& shard : shards) {
      // rst-atomics: snapshot reads race writers by design; per-cell
      // atomicity (no torn values) is the only requirement.
      for (size_t i = 0; i <= spec.bounds.size(); ++i) {
        snap.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
      }
      snap.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (uint64_t c : snap.counts) snap.count += c;
    if (snap.count > 0) {
      // rst-atomics: same snapshot-vs-writer race tolerance as the counts.
      snap.min = min.load(std::memory_order_relaxed);
      snap.max = max.load(std::memory_order_relaxed);
    }
    return snap;
  }

  void Zero() {
    // rst-atomics: Reset() documents that racing Records may straddle the
    // zeroing; each store only needs to be non-torn.
    for (Shard& shard : shards) {
      for (size_t i = 0; i <= spec.bounds.size(); ++i) {
        shard.counts[i].store(0, std::memory_order_relaxed);
      }
      shard.sum.store(0.0, std::memory_order_relaxed);
    }
    min.store(std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    max.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
  }

  HistogramSpec spec;
  std::array<Shard, MetricRegistry::kNumShards> shards;
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

void HistogramRef::Record(double value) const {
  if (impl_ == nullptr) return;
  impl_->Record(value);
}

// ---------------------------------------------------------------------------
// MetricRegistry

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry& MetricRegistry::Global() {
  // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
  static auto* registry = new MetricRegistry();
  return *registry;
}

Counter MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter::Impl>();
  return Counter(slot.get());
}

Gauge MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge::Impl>();
  return Gauge(slot.get());
}

HistogramRef MetricRegistry::GetHistogram(const std::string& name,
                                          const HistogramSpec& spec) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramRef::Impl>(spec);
  return HistogramRef(slot.get());
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, impl] : counters_) snap.counters[name] = impl->Sum();
  for (const auto& [name, impl] : gauges_) {
    // rst-atomics: last-writer-wins gauge cell; non-torn read is enough.
    snap.gauges[name] = impl->value.load(std::memory_order_relaxed);
  }
  for (const auto& [name, impl] : histograms_) {
    snap.histograms[name] = impl->Snapshot();
  }
  return snap;
}

void MetricRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, impl] : counters_) impl->Zero();
  for (auto& [name, impl] : gauges_) {
    // rst-atomics: see Reset() contract — racing Sets may land either side.
    impl->value.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, impl] : histograms_) impl->Zero();
}

// ---------------------------------------------------------------------------
// Snapshot export / import

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& base) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    auto it = base.counters.find(name);
    if (it != base.counters.end() && it->second <= value) value -= it->second;
  }
  for (auto& [name, hist] : delta.histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end() || it->second.bounds != hist.bounds ||
        it->second.count > hist.count) {
      continue;
    }
    for (size_t i = 0; i < hist.counts.size(); ++i) {
      hist.counts[i] -= it->second.counts[i];
    }
    hist.count -= it->second.count;
    hist.sum -= it->second.sum;
  }
  return delta;
}

void MetricsSnapshot::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : counters) {
    w->Key(name);
    w->Uint(value);
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, value] : gauges) {
    w->Key(name);
    w->Double(value);
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, hist] : histograms) {
    w->Key(name);
    w->BeginObject();
    w->Key("bounds");
    w->BeginArray();
    for (double b : hist.bounds) w->Double(b);
    w->EndArray();
    w->Key("counts");
    w->BeginArray();
    for (uint64_t c : hist.counts) w->Uint(c);
    w->EndArray();
    w->Key("count");
    w->Uint(hist.count);
    w->Key("sum");
    w->Double(hist.sum);
    w->Key("min");
    w->Double(hist.min);
    w->Key("max");
    w->Double(hist.max);
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.TakeString();
}

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  auto parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  return FromJsonValue(parsed.value());
}

Result<MetricsSnapshot> MetricsSnapshot::FromJsonValue(const JsonValue& root) {
  if (!root.is_object()) return Status::Corruption("snapshot: not an object");
  MetricsSnapshot snap;
  if (const JsonValue* counters = root.Get("counters")) {
    for (const auto& [name, value] : counters->AsObject()) {
      snap.counters[name] = value.AsUint();
    }
  }
  if (const JsonValue* gauges = root.Get("gauges")) {
    for (const auto& [name, value] : gauges->AsObject()) {
      snap.gauges[name] = value.AsDouble();
    }
  }
  if (const JsonValue* histograms = root.Get("histograms")) {
    for (const auto& [name, value] : histograms->AsObject()) {
      if (!value.is_object()) {
        return Status::Corruption("snapshot: histogram not an object");
      }
      HistogramSnapshot hist;
      if (const JsonValue* bounds = value.Get("bounds")) {
        for (const JsonValue& b : bounds->AsArray()) {
          hist.bounds.push_back(b.AsDouble());
        }
      }
      if (const JsonValue* counts = value.Get("counts")) {
        for (const JsonValue& c : counts->AsArray()) {
          hist.counts.push_back(c.AsUint());
        }
      }
      if (hist.counts.size() != hist.bounds.size() + 1) {
        return Status::Corruption("snapshot: histogram bucket mismatch");
      }
      if (const JsonValue* v = value.Get("count")) hist.count = v->AsUint();
      if (const JsonValue* v = value.Get("sum")) hist.sum = v->AsDouble();
      if (const JsonValue* v = value.Get("min")) hist.min = v->AsDouble();
      if (const JsonValue* v = value.Get("max")) hist.max = v->AsDouble();
      snap.histograms[name] = std::move(hist);
    }
  }
  return snap;
}

}  // namespace rst::obs
