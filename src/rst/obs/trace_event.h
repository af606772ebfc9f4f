#ifndef RST_OBS_TRACE_EVENT_H_
#define RST_OBS_TRACE_EVENT_H_

// Chrome trace-event export (DESIGN.md §12.3): serializes QueryTrace span
// trees and per-worker batch timelines into the `trace_event` JSON format
// that Perfetto and chrome://tracing open directly —
// {"displayTimeUnit": "ms", "traceEvents": [{"ph": "X", "ts": ..., ...}]}.
//
// Two sources feed one writer:
//   * rst::exec::BatchRunner emits a complete ("ph":"X") `run` event per
//     query on its worker's track, with the measured queue wait as an arg —
//     the per-worker timeline (queue-wait vs run);
//   * every N-th query by batch index additionally serializes its QueryTrace
//     span tree nested under the run event, plus a `queue_wait` slice on a
//     dedicated queue track.
//
// Span trees are AGGREGATED (QueryTrace merges same-name spans), so a span's
// slice renders its total time as one block; children are laid out
// sequentially from the parent's start in first-entered order. That is a
// synthetic layout — real interleavings are collapsed — but durations,
// nesting, and call counts are exact.
//
// The buffer is bounded: events beyond `capacity` are dropped and counted
// (dropped()), never reallocated past the cap, so a profiling run can't eat
// the heap. Append is thread-safe (one mutex; this is the export path, not
// the query hot path — the hot path's cost is composing ~1 event per query).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rst/common/mutex.h"
#include "rst/common/status.h"
#include "rst/common/thread_annotations.h"

namespace rst::obs {

struct Span;
class JsonWriter;

class TraceEventWriter {
 public:
  /// `capacity` bounds the event buffer; `sample_every` = N keeps the span
  /// tree of every N-th query by batch index (1 = every query; 0 is read as
  /// 1).
  explicit TraceEventWriter(size_t capacity = 1 << 16,
                            uint64_t sample_every = 1);

  TraceEventWriter(const TraceEventWriter&) = delete;
  TraceEventWriter& operator=(const TraceEventWriter&) = delete;

  /// Microseconds since this writer's construction (its steady-clock epoch);
  /// every event timestamp shares it, so tracks line up.
  double NowUs() const;

  /// True when batch query `index` keeps its span tree (`index % N == 0`),
  /// like the journal's stride, so the choice never depends on the thread
  /// schedule.
  bool ShouldSample(uint64_t index) const {
    return index % sample_every_ == 0;
  }
  uint64_t sample_every() const { return sample_every_; }

  /// One complete ("ph":"X") event. `cat` and arg keys must outlive the
  /// writer (pass metric_names.h constants). Args with an empty key are
  /// skipped.
  struct NumArg {
    // Explicit constructors (not NSDMIs): a default member initializer here
    // could not be used as AddComplete's default argument before the
    // enclosing class is complete.
    NumArg() : key(nullptr), value(0.0) {}
    NumArg(const char* k, double v) : key(k), value(v) {}
    const char* key;
    double value;
  };
  void AddComplete(std::string_view name, const char* cat, uint32_t tid,
                   double ts_us, double dur_us, NumArg arg0 = NumArg(),
                   NumArg arg1 = NumArg()) RST_EXCLUDES(mu_);

  /// Serializes an aggregated span tree as nested complete events starting
  /// at `ts_us` on track `tid` (see the layout note above).
  void AddSpanTree(const Span& root, uint32_t tid, double ts_us)
      RST_EXCLUDES(mu_);

  /// Names a track ("ph":"M" thread_name metadata event).
  void AddThreadName(uint32_t tid, std::string_view name) RST_EXCLUDES(mu_);

  size_t size() const RST_EXCLUDES(mu_);
  uint64_t dropped() const RST_EXCLUDES(mu_);

  /// The complete document; parseable by obs::JsonValue::Parse (pinned by
  /// tests) and by Perfetto.
  std::string ToJson() const RST_EXCLUDES(mu_);
  void AppendJson(JsonWriter* writer) const RST_EXCLUDES(mu_);

  /// Crash-atomic write of ToJson() to `path` (temp file + rename).
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    const char* cat = nullptr;  ///< nullptr marks a thread_name metadata event
    uint32_t tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    NumArg args[2];
    uint64_t calls = 0;  ///< span call count; 0 = omit
  };

  /// Returns false (and counts the drop) when at capacity.
  bool Append(Event event) RST_EXCLUDES(mu_);
  void AppendSpanLocked(const Span& span, uint32_t tid, double ts_us)
      RST_REQUIRES(mu_);

  const size_t capacity_;
  const uint64_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mu_;
  std::vector<Event> events_ RST_GUARDED_BY(mu_);
  /// Plain (not atomic) on purpose: only touched under mu_ on the export
  /// path, so the mutex is the whole story.
  uint64_t dropped_ RST_GUARDED_BY(mu_) = 0;
};

}  // namespace rst::obs

#endif  // RST_OBS_TRACE_EVENT_H_
