#ifndef RST_SHARD_SHARDED_SEARCH_H_
#define RST_SHARD_SHARDED_SEARCH_H_

#include <cstdint>
#include <vector>

#include "rst/data/dataset.h"
#include "rst/rstknn/rstknn.h"
#include "rst/shard/sharded_index.h"
#include "rst/text/similarity.h"

namespace rst {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

/// Shard-level triage outcomes of one query (or a batch, after Merge):
/// every shard lands in exactly one bucket, so the three counters sum to
/// num_shards per query.
struct ShardedStats {
  uint64_t shards_pruned = 0;    ///< whole shard pruned by the forest probe
  uint64_t shards_reported = 0;  ///< whole shard reported wholesale
  uint64_t shards_searched = 0;  ///< shard searched by the full algorithm

  /// Adds the counters to the global registry (rstknn.shard.*).
  void Publish() const;
  ShardedStats& Merge(const ShardedStats& other);
};

struct ShardedResult {
  std::vector<ObjectId> answers;  ///< ascending object ids
  RstknnStats stats;              ///< triage + per-shard search stats, merged
  ShardedStats shards;
};

/// Scatter-gather RSTkNN over a ShardedIndex (DESIGN.md §15). Per query:
///   1. *Triage*: each shard is treated as one virtual candidate entry of a
///      two-level forest (virtual root -> K virtual shard entries -> the
///      shard trees) and run through the SAME guaranteed/potential competitor
///      probes that decide node entries inside a tree — competitors counted
///      across the whole forest. A shard whose MaxST(q, shard) is beaten by
///      >= k guaranteed competitors is pruned wholesale; one whose
///      MinST(q, shard) cannot be beaten by k is reported wholesale.
///   2. *Scatter*: surviving shards run the full probe/contribution-list
///      algorithm over a shard-scoped view whose competitor probes still
///      start at the forest root, so counting stays global and every
///      per-shard decision is exact.
///   3. *Gather*: per-shard answers are concatenated and sorted; stats merge
///      in shard order. Answers are byte-identical to a single-index search
///      at any shard count and thread count (the answer set is a property of
///      the dataset, not the tree shape); RstknnStats differ — they describe
///      the forest traversal.
///
/// Restrictions: `options.explain` and `options.pool` are unsupported in
/// sharded mode (RST_CHECK) — the per-shard searches would reset the recorder
/// and the buffer pool wraps a single tree's page store. `options.heatmap` is
/// fully supported and reconciles exactly against the returned stats;
/// `options.trace` is ignored by the per-shard searches.
class ShardedSearcher {
 public:
  /// All referents must outlive the searcher.
  ShardedSearcher(const ShardedIndex* index, const Dataset* dataset,
                  const StScorer* scorer);

  /// Runs one query. With a `pool` of > 1 threads, surviving shards fan out
  /// across the pool (one private heatmap per worker, merged after the join);
  /// otherwise shards run serially on the caller. Results are identical
  /// either way.
  ShardedResult Search(const RstknnQuery& query,
                       const RstknnOptions& options = RstknnOptions(),
                       exec::ThreadPool* pool = nullptr) const;

  const ShardedIndex* index() const { return index_; }

 private:
  const ShardedIndex* index_;
  const Dataset* dataset_;
  const StScorer* scorer_;
  /// Cumulative entry counts per shard, for globally unique explain/heatmap
  /// ids: shard s's entry e maps to id K + entry_offsets_[s] + e + 1 (ids
  /// 1..K belong to the virtual shard entries).
  std::vector<uint64_t> entry_offsets_;
  /// 1 + K + total entries: the dense entry-key space of the forest.
  size_t entry_key_space_ = 0;
};

}  // namespace shard
}  // namespace rst

#endif  // RST_SHARD_SHARDED_SEARCH_H_
