#ifndef RST_OBS_EXPLAIN_H_
#define RST_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rst/common/status.h"

namespace rst::obs {

class JsonWriter;

/// What the branch-and-bound concluded about one entry (a subtree or an
/// object) of the search tree.
enum class ExplainVerdict : uint8_t {
  kPrune = 0,       ///< subtree discarded: MaxST(q,E) < kNNL(E)
  kExpand = 1,      ///< bounds inconclusive; children become candidates
  kReportHit = 2,   ///< reported into the answer set (object or wholesale)
  kReportMiss = 3,  ///< object conclusively decided NOT an answer
};

/// Which bound forced the verdict.
enum class ExplainBound : uint8_t {
  kNone = 0,        ///< no bound fired (expansion)
  kLowerBound = 1,  ///< the kNNL-side prune test (k-th guaranteed competitor)
  kUpperBound = 2,  ///< the kNNU-side report test (k-th potential competitor)
  kExact = 3,       ///< exact leaf-level competitor count (object candidates)
};

std::string_view ExplainVerdictName(ExplainVerdict verdict);
std::string_view ExplainBoundName(ExplainBound bound);

/// One recorded branch-and-bound decision. `node_id` and `level` come from a
/// deterministic preorder numbering of the tree (a FrozenTree's entry index
/// + 1; DESIGN.md §14.2), so the record is
/// stable across runs and thread counts; the similarity interval
/// [q_min, q_max] = [MinST(q,E), MaxST(q,E)] is the evidence the verdict was
/// reached on.
struct ExplainDecision {
  uint64_t node_id = 0;
  uint32_t level = 0;
  ExplainVerdict verdict = ExplainVerdict::kPrune;
  ExplainBound bound = ExplainBound::kNone;
  double q_min = 0.0;
  double q_max = 0.0;
  uint64_t subtree_count = 0;  ///< objects decided by this verdict
};

/// Decision tallies of one node, one tree level or a whole run — the one
/// counter struct EXPLAIN (per level) and the heatmap (per node, per level
/// and in total) share, so both count a verdict the same way.
struct DecisionCounters {
  uint32_t level = 0;             ///< tree level (0 = the root's entries)
  uint64_t visits = 0;            ///< decisions of any kind
  uint64_t pruned = 0;            ///< subtree discarded via bounds
  uint64_t expanded = 0;          ///< node opened, children enqueued
  uint64_t reported_hit = 0;      ///< reported as (containing) answers
  uint64_t reported_miss = 0;     ///< object decided exactly, not an answer
  uint64_t objects_pruned = 0;    ///< objects inside pruned subtrees
  uint64_t objects_reported = 0;  ///< objects inside reported subtrees
  uint64_t lower_bound_fires = 0;
  uint64_t upper_bound_fires = 0;
  uint64_t exact_fires = 0;

  uint64_t decisions() const {
    return pruned + expanded + reported_hit + reported_miss;
  }

  /// Counts one decision that settled `decided_objects` objects.
  void Tally(ExplainVerdict verdict, ExplainBound bound,
             uint64_t decided_objects);
  /// Adds every counter of `other`; `level` stays as it is.
  DecisionCounters& operator+=(const DecisionCounters& other);

  /// The reconciliation identities against RstknnStats summed over exactly
  /// the recorded queries:
  ///   pruned + reported_miss == stats.pruned_entries,
  ///   reported_hit          == stats.reported_entries,
  ///   expanded              == stats.expansions.
  /// InvalidArgument naming `source` and the first broken identity otherwise.
  Status CheckReconciles(std::string_view source, uint64_t expansions,
                         uint64_t pruned_entries,
                         uint64_t reported_entries) const;
};

/// The slot of `level` in a dense per-level vector, growing the vector (and
/// stamping each new slot's level) as needed.
DecisionCounters& LevelSlot(std::vector<DecisionCounters>* levels,
                            uint32_t level);

/// EXPLAIN-level recorder for one RSTkNN query: every branch-and-bound
/// decision (which entry, which bound, which verdict) lands here when a
/// recorder is attached via RstknnOptions::explain. The per-level summary is
/// always maintained; the full decision log is kept only up to
/// `max_decisions` (0 = summary only), with overflow counted in
/// `log_dropped()` — diagnostics stay bounded on adversarial queries.
///
/// Determinism: the recorder stores no clocks and no pointers, only
/// explain ids and similarity bounds, so for a fixed query, dataset,
/// and seed the JSON export is byte-identical at any thread count (the
/// batch engine runs the unmodified single-query algorithm).
///
/// Reconciliation: the search bumps the decision counters of RstknnStats
/// and records the decision here in one call (SearchObserver::Decide), so the
/// totals reconcile with the stats by construction; CheckReconciles()
/// verifies the identities (DecisionCounters::CheckReconciles) and
/// explain_test property-tests them across algorithms and tree variants.
///
/// Single-threaded by design, like QueryTrace: one recorder per query; a
/// batch gives each query its own and merges them in query order.
class ExplainRecorder {
 public:
  explicit ExplainRecorder(size_t max_decisions = 0)
      : max_decisions_(max_decisions) {}

  /// Stamped by the searcher ("probe" / "contribution_list").
  void SetAlgorithm(std::string_view name) { algorithm_ = name; }
  const std::string& algorithm() const { return algorithm_; }

  void Record(const ExplainDecision& decision);

  /// Drops all recorded state (summary, log, algorithm) but keeps the cap —
  /// lets a worker reuse one recorder across the queries of a batch.
  void Reset();

  /// Folds `other` (a later query of the same batch) into this recorder:
  /// per-level summaries and totals add up, the algorithm stamp is taken
  /// from `other` if this recorder has none, and the decision log keeps the
  /// first `max_decisions` decisions across both — every decision of
  /// `other` that does not fit counts in log_dropped(). Merging per-query
  /// recorders in query order therefore yields the log a single recorder
  /// would have kept over the whole batch.
  void Merge(const ExplainRecorder& other);

  /// Totals across all levels.
  const DecisionCounters& totals() const { return totals_; }
  uint64_t decisions() const { return totals_.decisions(); }

  /// Verifies the decision totals against the searcher's counters (see class
  /// comment); InvalidArgument with the first broken identity otherwise.
  Status CheckReconciles(uint64_t expansions, uint64_t pruned_entries,
                         uint64_t reported_entries) const {
    return totals_.CheckReconciles("explain", expansions, pruned_entries,
                                   reported_entries);
  }

  /// Per-level tallies, dense by level (a level may have no decisions).
  const std::vector<DecisionCounters>& levels() const { return levels_; }

  /// Decision log (first `max_decisions` decisions, in decision order).
  const std::vector<ExplainDecision>& log() const { return log_; }
  uint64_t log_dropped() const { return log_dropped_; }
  size_t max_decisions() const { return max_decisions_; }

  /// Indented human-readable report (per-level table + optional log).
  std::string ToString() const;
  /// {"algorithm":..., "totals":{...}, "levels":[...], "log":[...],
  ///  "log_dropped":N} — deterministic (no clocks, no pointers).
  std::string ToJson() const;
  void AppendJson(JsonWriter* writer) const;

 private:
  std::string algorithm_;
  size_t max_decisions_;
  DecisionCounters totals_;
  std::vector<DecisionCounters> levels_;  ///< dense by level
  std::vector<ExplainDecision> log_;
  uint64_t log_dropped_ = 0;
};

}  // namespace rst::obs

#endif  // RST_OBS_EXPLAIN_H_
