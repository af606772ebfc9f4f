#ifndef RST_RSTKNN_SEARCH_OBSERVER_H_
#define RST_RSTKNN_SEARCH_OBSERVER_H_

/// The instrumentation seam of the templated RSTkNN search (search_impl.h).
/// An implementation detail like search_impl.h: include it only from the
/// search engine.

#include <cstdint>
#include <string_view>

#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace rstknn_internal {

/// Which RstknnStats deltas a SearchObserver scope attaches to its trace span
/// when it closes.
enum class SpanDeltas { kNone, kBounds, kBoundsAndPops };

/// The one instrumentation seam of a search (DESIGN.md §9, §12.1), built
/// once per query from the RstknnOptions instruments (trace, profiler,
/// explain, heatmap) and the result's RstknnStats. It has two operations:
///   * Phase() opens a scope: the profiler phase and the trace span of one
///     region, entered together and exited together;
///   * Decide() takes one branch-and-bound verdict: it bumps the matching
///     decision counter of the stats and records the decision in EXPLAIN and
///     the heatmap under the view's EntryKey / EntryLevel, so both reconcile
///     with the stats by construction.
/// Hooks fire per candidate and per probe, never per pair; an absent
/// instrument costs one null-pointer test. The per-pair counters
/// (bound_computations, pq_pops, probes, io) stay plain increments on
/// stats(). Constructing the observer resets and stamps the EXPLAIN recorder;
/// the heatmap is deliberately not reset — it accumulates across queries.
template <typename View>
class SearchObserver {
 public:
  using EntryRef = typename View::EntryRef;

  /// One instrumented region. The span is skipped when `span` is empty.
  class [[nodiscard]] Scope {
   public:
    Scope(const SearchObserver& observer, obs::Phase phase,
          std::string_view span, SpanDeltas deltas)
        : profiler_(observer.options_.profiler),
          trace_(span.empty() ? nullptr : observer.options_.trace),
          stats_(observer.stats_),
          deltas_(deltas) {
      if (trace_ != nullptr) {
        trace_->Enter(span);
        bounds_before_ = stats_->bound_computations;
        pops_before_ = stats_->pq_pops;
      }
      if (profiler_ != nullptr) profiler_->Enter(phase);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->Exit();
      if (trace_ == nullptr) return;
      if (deltas_ != SpanDeltas::kNone) {
        trace_->AddCount(obs::names::kCountBoundComputations,
                         stats_->bound_computations - bounds_before_);
      }
      if (deltas_ == SpanDeltas::kBoundsAndPops) {
        trace_->AddCount(obs::names::kCountPqPops,
                         stats_->pq_pops - pops_before_);
      }
      trace_->Exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attributes `n` to counter `key` of the span (no-op without one).
    void AddCount(std::string_view key, uint64_t n) const {
      if (trace_ != nullptr) trace_->AddCount(key, n);
    }

   private:
    obs::PhaseProfiler* const profiler_;
    obs::QueryTrace* const trace_;
    const RstknnStats* const stats_;
    const SpanDeltas deltas_;
    uint64_t bounds_before_ = 0;
    uint64_t pops_before_ = 0;
  };

  SearchObserver(const View& view, const RstknnOptions& options,
                 RstknnStats* stats)
      : view_(view), options_(options), stats_(stats) {
    if (options.explain != nullptr) {
      options.explain->Reset();
      options.explain->SetAlgorithm(
          options.algorithm == RstknnAlgorithm::kContributionList
              ? "contribution_list"
              : "probe");
    }
  }

  const RstknnOptions& options() const { return options_; }
  RstknnStats* stats() const { return stats_; }

  Scope Phase(obs::Phase phase, std::string_view span = {},
              SpanDeltas deltas = SpanDeltas::kNone) const {
    return Scope(*this, phase, span, deltas);
  }

  /// One verdict on `entry`, whose similarity to q lies in [q_min, q_max]
  /// and which settles `decided_objects` objects.
  void Decide(EntryRef entry, double q_min, double q_max,
              obs::ExplainVerdict verdict, obs::ExplainBound bound,
              uint64_t decided_objects) const {
    switch (verdict) {
      case obs::ExplainVerdict::kPrune:
      case obs::ExplainVerdict::kReportMiss:
        ++stats_->pruned_entries;
        break;
      case obs::ExplainVerdict::kReportHit:
        ++stats_->reported_entries;
        break;
      case obs::ExplainVerdict::kExpand:
        ++stats_->expansions;
        break;
    }
    obs::ExplainRecorder* explain = options_.explain;
    obs::HeatmapRecorder* heatmap = options_.heatmap;
    if (explain == nullptr && heatmap == nullptr) return;
    const uint64_t id = view_.EntryKey(entry);
    const uint32_t level = view_.EntryLevel(entry);
    if (explain != nullptr) {
      explain->Record(
          {id, level, verdict, bound, q_min, q_max, decided_objects});
    }
    if (heatmap != nullptr) {
      heatmap->Record(id, level, verdict, bound, decided_objects);
    }
  }

 private:
  const View& view_;
  const RstknnOptions& options_;
  RstknnStats* const stats_;
};

}  // namespace rstknn_internal
}  // namespace rst

#endif  // RST_RSTKNN_SEARCH_OBSERVER_H_
