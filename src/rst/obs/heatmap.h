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

/// Workload-level index heatmap: per-node visit/prune/expand/report counters
/// (DecisionCounters) accumulated across queries. A node is identified by its
/// stable explain preorder id (`entry_index + 1` in a FrozenTree, a function
/// of tree structure alone), so heatmaps from separate runs of the same
/// workload over the same index are directly comparable. Unlike
/// ExplainRecorder (one query, full decision log), this keeps only counters
/// keyed by node id, so it stays small and mergeable no matter how many
/// queries feed it.
///
/// Contract (DecisionCounters::CheckReconciles, as for ExplainRecorder):
/// summed over all nodes, `pruned + reported_miss == stats.pruned_entries`,
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

  uint64_t decisions() const { return totals_.decisions(); }
  const DecisionCounters& totals() const { return totals_; }
  const std::map<uint64_t, DecisionCounters>& nodes() const { return nodes_; }

  /// Per-level sums in level order (levels with no decisions omitted).
  std::vector<DecisionCounters> LevelSummaries() const;

  /// Exact reconciliation against summed RstknnStats; InvalidArgument with a
  /// counter-by-counter message on any mismatch.
  Status CheckReconciles(uint64_t expansions, uint64_t pruned_entries,
                         uint64_t reported_entries) const;

  /// {"queries":..,"decisions":..,"totals":{..},"levels":[..],"nodes":[..]}
  /// Nodes are emitted in ascending id order so output is deterministic;
  /// `max_nodes` > 0 keeps only the hottest (by visits, then id) that many.
  void AppendJson(JsonWriter* writer, size_t max_nodes = 0) const;
  std::string ToJson(size_t max_nodes = 0) const;

 private:
  uint64_t queries_ = 0;
  DecisionCounters totals_;
  // Ordered by node id: deterministic iteration for export and merge.
  std::map<uint64_t, DecisionCounters> nodes_;
};

}  // namespace rst::obs

#endif  // RST_OBS_HEATMAP_H_
