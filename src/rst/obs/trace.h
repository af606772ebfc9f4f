#ifndef RST_OBS_TRACE_H_
#define RST_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rst/obs/metric_names.h"

namespace rst::obs {

class JsonWriter;

/// One aggregated node of a query's span tree. Repeated spans with the same
/// name under the same parent merge into a single node (wall time and call
/// count accumulate), so hot per-item spans stay readable: a probe loop that
/// pops 10k queue entries shows as one `probe.pop ×10000` line, not 10k
/// lines.
struct Span {
  std::string name;
  double total_ms = 0.0;
  uint64_t calls = 0;
  /// Counter deltas attributed to this span via QueryTrace::AddCount or
  /// QueryTrace::AddCompleted.
  std::map<std::string, uint64_t> counts;
  std::vector<std::unique_ptr<Span>> children;  ///< first-entered order
};

/// Per-query span tree recorder. Single-threaded by design (one trace per
/// query, merged with Merge when a batch fills one trace); pass nullptr wherever a trace is accepted to disable tracing —
/// the RAII TraceSpan then compiles down to a pointer test.
class QueryTrace {
 public:
  /// `root_name` labels the implicit root span, which is open from
  /// construction until Finish().
  explicit QueryTrace(std::string_view root_name = names::kTraceQuery);

  /// Opens a child span of the innermost open span (merging by name).
  void Enter(std::string_view name);
  /// Closes the innermost open span (never the root).
  void Exit();
  /// Closes any spans left open and stamps the root's total time. Call
  /// before exporting (ToString/ToJson read whatever has been stamped).
  void Finish();

  /// Adds `n` to counter `key` of the innermost open span.
  void AddCount(std::string_view key, uint64_t n = 1);

  /// Adds a finished child span to the innermost open span, merging by name
  /// as Enter/Exit do: `ms`, `calls` and every (key, n) of `counts`
  /// accumulate onto it. A caller that times its own regions (the RSTkNN
  /// search's per-query record) reports them here once it is done.
  void AddCompleted(
      std::string_view name, double ms, uint64_t calls,
      std::span<const std::pair<std::string_view, uint64_t>> counts);

  /// Folds `other`'s spans into the innermost open span of this trace, as if
  /// they had been recorded here: the other root's counts add to that span,
  /// and its children merge by name, recursively (wall time, calls and
  /// counts accumulate; unseen names append in `other`'s order). The other
  /// root's own time is not added. A batch records each query into a
  /// private trace and merges them into the caller's in query order.
  void Merge(const QueryTrace& other);

  const Span& root() const { return *root_; }

  /// Indented human-readable span tree.
  std::string ToString() const;
  /// {"name":..., "ms":..., "calls":..., "counts":{...}, "children":[...]}.
  std::string ToJson() const;
  void AppendJson(JsonWriter* writer) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    Span* span;
    Clock::time_point start;
  };

  std::unique_ptr<Span> root_;
  std::vector<Frame> stack_;
};

/// RAII scope for one span. A null trace makes construction and destruction
/// no-ops, so instrumented hot paths cost one branch when tracing is off.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) trace_->Enter(name);
  }
  ~TraceSpan() {
    if (trace_ != nullptr) trace_->Exit();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attributes `n` to counter `key` of this span (no-op when disabled).
  void AddCount(std::string_view key, uint64_t n = 1) const {
    if (trace_ != nullptr) trace_->AddCount(key, n);
  }

 private:
  QueryTrace* trace_;
};

}  // namespace rst::obs

#endif  // RST_OBS_TRACE_H_
