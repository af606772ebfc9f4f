#ifndef RST_OBS_HEATMAP_H_
#define RST_OBS_HEATMAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rst/common/status.h"
#include "rst/obs/explain.h"

namespace rst::obs {

class JsonWriter;

/// Per-node counters accumulated by a HeatmapRecorder. A node is identified
/// by its stable explain preorder id (`entry_index + 1` in a FrozenTree, a
/// function of tree structure alone), so heatmaps from separate runs of the
/// same workload over the same index are directly comparable.
struct HeatmapNodeCounters {
  uint32_t level = 0;             ///< tree level (0 = leaf entries)
  uint64_t visits = 0;            ///< decisions of any kind touching this node
  uint64_t pruned = 0;            ///< subtree discarded via bounds
  uint64_t expanded = 0;          ///< node opened, children enqueued
  uint64_t reported_hit = 0;      ///< reported as (containing) answers
  uint64_t reported_miss = 0;     ///< decided exactly, not an answer
  uint64_t objects_pruned = 0;    ///< objects discarded under this node
  uint64_t objects_reported = 0;  ///< objects reported under this node
  uint64_t lower_bound_fires = 0;
  uint64_t upper_bound_fires = 0;
  uint64_t exact_fires = 0;

  HeatmapNodeCounters& operator+=(const HeatmapNodeCounters& other);
};

/// Workload-level index heatmap: per-node visit/prune/expand/report counters
/// accumulated across queries. Unlike ExplainRecorder (one query, full
/// decision log), this keeps only counters keyed by node id, so it stays
/// small and mergeable no matter how many queries feed it.
///
/// Contract (mirrors ExplainRecorder::CheckReconciles): summed over all
/// nodes, `pruned + reported_miss == stats.pruned_entries`,
/// `reported_hit == stats.reported_entries` and
/// `expanded == stats.expansions`, where `stats` is the sum of RstknnStats
/// over exactly the queries recorded — per query, per batch, and after
/// Merge across workers.
///
/// Not thread-safe: give each worker its own recorder and Merge after the
/// join (counters are commutative sums keyed by stable ids, so the merged
/// result is identical at any thread count).
class HeatmapRecorder {
 public:
  /// One branch-and-bound decision on node `node_id` at `level`.
  /// `decided_objects` is the number of underlying objects settled by the
  /// decision (same convention as ExplainDecision::subtree_count).
  void Record(uint64_t node_id, uint32_t level, ExplainVerdict verdict,
              ExplainBound bound, uint64_t decided_objects);

  /// Folds `other` into this recorder (per-node counter sums).
  void Merge(const HeatmapRecorder& other);

  void Reset();

  /// Number of queries whose decisions are included — bumped by the caller
  /// (searchers cannot see batch boundaries).
  void AddQueries(uint64_t n) { queries_ += n; }
  uint64_t queries() const { return queries_; }

  uint64_t decisions() const {
    return totals_.pruned + totals_.expanded + totals_.reported_hit +
           totals_.reported_miss;
  }
  const HeatmapNodeCounters& totals() const { return totals_; }
  const std::map<uint64_t, HeatmapNodeCounters>& nodes() const {
    return nodes_;
  }

  /// Per-level sums in level order (levels with no decisions omitted).
  std::vector<HeatmapNodeCounters> LevelSummaries() const;

  /// Exact reconciliation against summed RstknnStats; InvalidArgument with a
  /// counter-by-counter message on any mismatch.
  Status CheckReconciles(uint64_t expansions, uint64_t pruned_entries,
                         uint64_t reported_entries) const;

  /// {"queries":..,"decisions":..,"totals":{..},"levels":[..],"nodes":[..]}
  /// Nodes are emitted in ascending id order so output is deterministic;
  /// `max_nodes` > 0 keeps only the hottest (by visits, then id) that many.
  void AppendJson(JsonWriter* writer, size_t max_nodes = 0) const;
  std::string ToJson(size_t max_nodes = 0) const;

  std::string ToString() const;

 private:
  uint64_t queries_ = 0;
  HeatmapNodeCounters totals_;
  // Ordered by node id: deterministic iteration for export and merge.
  std::map<uint64_t, HeatmapNodeCounters> nodes_;
};

}  // namespace rst::obs

#endif  // RST_OBS_HEATMAP_H_
