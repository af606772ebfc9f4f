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

/// Per-tree-level aggregation of decisions (level 0 = the root's entries).
struct ExplainLevelSummary {
  uint32_t level = 0;
  uint64_t pruned = 0;
  uint64_t expanded = 0;
  uint64_t reported_hit = 0;
  uint64_t reported_miss = 0;
  uint64_t objects_pruned = 0;    ///< objects inside pruned subtrees
  uint64_t objects_reported = 0;  ///< objects inside reported subtrees

  uint64_t decisions() const {
    return pruned + expanded + reported_hit + reported_miss;
  }
};

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
/// Reconciliation: decision totals are definitionally tied to RstknnStats —
///   pruned + reported_miss == stats.pruned_entries,
///   reported_hit          == stats.reported_entries,
///   expanded              == stats.expansions —
/// CheckReconciles() verifies the identities; explain_test property-tests
/// them across algorithms and tree variants.
///
/// Single-threaded by design, like QueryTrace: one recorder per query.
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

  // --- totals (across all levels) ---
  uint64_t pruned() const { return totals_.pruned; }
  uint64_t expanded() const { return totals_.expanded; }
  uint64_t reported_hit() const { return totals_.reported_hit; }
  uint64_t reported_miss() const { return totals_.reported_miss; }
  uint64_t decisions() const { return totals_.decisions(); }

  /// Verifies the decision totals against the searcher's counters (see class
  /// comment); InvalidArgument with the first broken identity otherwise.
  Status CheckReconciles(uint64_t expansions, uint64_t pruned_entries,
                         uint64_t reported_entries) const;

  /// Levels with at least one decision, ascending.
  const std::vector<ExplainLevelSummary>& levels() const { return levels_; }

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
  ExplainLevelSummary totals_;
  std::vector<ExplainLevelSummary> levels_;  ///< dense by level
  std::vector<ExplainDecision> log_;
  uint64_t log_dropped_ = 0;
};

}  // namespace rst::obs

#endif  // RST_OBS_EXPLAIN_H_
