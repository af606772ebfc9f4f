#ifndef RST_RSTKNN_RSTKNN_H_
#define RST_RSTKNN_RSTKNN_H_

#include <memory>
#include <vector>

#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"
#include "rst/storage/io_stats.h"
#include "rst/text/similarity.h"
#include "rst/topk/topk.h"

namespace rst {

namespace obs {
class ExplainRecorder;
class HeatmapRecorder;
class PhaseProfiler;
class QueryTrace;
}  // namespace obs

/// The Reverse Spatial-Textual k Nearest Neighbor query (SIGMOD 2011):
/// given a query object q = (loc, doc), return every object o whose top-k
/// most spatial-textually similar objects (among the rest of the collection)
/// include q — equivalently, objects o for which fewer than k other objects
/// are *strictly* more similar to o than q is (ties resolve in q's favor,
/// deterministically).
struct RstknnQuery {
  Point loc;
  const TermVector* doc = nullptr;
  size_t k = 10;
  /// If the query is an existing object of the dataset, its id: the object
  /// is then excluded from every candidate's top-k competitor set (and from
  /// the answers).
  ObjectId self = IurTree::kNoObject;
};

/// Which realization of the branch-and-bound bounds to run.
enum class RstknnAlgorithm {
  /// Early-terminating competitor probes per candidate (default; identical
  /// answers to the contribution-list algorithm, typically far faster — the
  /// ablation bench fig_core_ablation_algorithm quantifies it).
  kProbe,
  /// The 2011 paper's literal scheme: a flat entry set where every entry is
  /// simultaneously candidate and contributor; kNNL/kNNU from sorted
  /// contribution lists over the live entries; coarse contributors are
  /// expanded when they block a decision.
  kContributionList,
};

/// How the branch-and-bound picks the next entry to expand.
enum class ExpandPolicy {
  /// Best-first on the upper-bound similarity to q (the 2011 default).
  kBestFirst,
  /// TE enhancement: bias expansion toward textually mixed (high
  /// cluster-entropy) nodes whose bounds are loosest. Only differs from
  /// kBestFirst on clustered (CIUR) trees.
  kTextEntropy,
};

/// Reusable per-thread working memory for RstknnSearcher: one byte of marks
/// per tree node (on the query object's root path, already charged), the
/// competitor probes' heap, and the per-candidate pair memo (a sparse set
/// over the searched tree's entry indices: 4 B per index entry, plus one
/// slot per pair a candidate's probes touch). A searcher given a scratch
/// clears it instead of reallocating, so every container keeps its capacity
/// across the queries of a batch. One scratch may serve frozen trees of any
/// size, one query at a time; it must never be shared by two concurrent
/// queries — rst::exec::BatchRunner keeps one per worker.
class ProbeScratch {
 public:
  ProbeScratch();
  ~ProbeScratch();

  ProbeScratch(const ProbeScratch&) = delete;
  ProbeScratch& operator=(const ProbeScratch&) = delete;

  /// Internal state, defined in rstknn.cc (opaque to callers).
  struct Impl;
  Impl* impl() const { return impl_.get(); }

 private:
  std::unique_ptr<Impl> impl_;
};

struct RstknnOptions {
  RstknnAlgorithm algorithm = RstknnAlgorithm::kProbe;
  ExpandPolicy expand = ExpandPolicy::kBestFirst;
  /// The four instruments below (trace, profiler, explain, heatmap) feed
  /// one per-query seam inside the search (DESIGN.md §9): with a trace or a
  /// profiler attached, the search times each of its regions once into a
  /// fixed per-query record (ns, calls and counter deltas per region) and
  /// hands the record to both when it returns; each branch-and-bound verdict
  /// bumps RstknnStats and records EXPLAIN and the heatmap in one call. A
  /// null instrument costs one branch per hook, and with neither a trace nor
  /// a profiler attached the search reads no clock.
  ///
  /// Optional query trace: the search's regions (setup, probe.guaranteed,
  /// probe.potential, pick, contributions, expand) appear as completed child
  /// spans of the algorithm span, with their counter deltas.
  obs::QueryTrace* trace = nullptr;
  /// Optional per-phase latency attribution (DESIGN.md §12): Search() resets
  /// the profiler, adds each region of the record to its phase (descent /
  /// bounds / merge / finalize; the regions are disjoint, so the phases sum
  /// to at most the query's wall time), and publishes one rstknn.phase.*
  /// histogram sample per phase on completion. Single-threaded like `trace`
  /// — exec::BatchRunner gives each query a private one and merges them into
  /// the batch's.
  obs::PhaseProfiler* profiler = nullptr;
  /// Optional reusable working memory (see ProbeScratch). Null allocates
  /// fresh scratch per query — correct, just slower for batches.
  ProbeScratch* scratch = nullptr;
  /// When false, Search() skips the per-query registry publish (rstknn.*
  /// counters and the latency histogram). Batch execution sets this so a
  /// batch lands in the registry as ONE aggregated publish instead of N
  /// per-query ones; the returned RstknnStats are unaffected.
  bool publish_metrics = true;
  /// Optional EXPLAIN recorder (DESIGN.md §9): every search — including one
  /// that returns at once (k = 0, empty tree) — resets it, stamps the
  /// algorithm, and records every branch-and-bound decision: which entry,
  /// which bound fired, prune/expand/report verdict. Decision totals
  /// reconcile exactly with the returned RstknnStats by construction
  /// (ExplainRecorder::CheckReconciles verifies it).
  obs::ExplainRecorder* explain = nullptr;
  /// Optional cross-query index heatmap: every branch-and-bound decision
  /// also bumps per-node visit/prune/expand/report counters keyed by the
  /// same stable explain ids, through the same tally as `explain`. Unlike
  /// `explain` the recorder is NOT reset per query — it accumulates a
  /// workload-level view whose totals reconcile exactly against the summed
  /// RstknnStats over the recorded queries (HeatmapRecorder::CheckReconciles).
  /// Not thread-safe: one per worker, merged after the batch.
  obs::HeatmapRecorder* heatmap = nullptr;
};

struct RstknnStats {
  IoStats io;
  uint64_t entries_created = 0;   ///< search entries materialized
  uint64_t expansions = 0;        ///< node expansions performed
  uint64_t pruned_entries = 0;    ///< subtrees pruned without expansion
  uint64_t reported_entries = 0;  ///< subtrees reported wholesale
  /// Pair-bound evaluations: one per (candidate, other) pair a competitor
  /// probe first meets (its spatial legs; the text legs follow lazily), one
  /// per lazy cluster refinement, one per candidate self-pair; under the
  /// contribution-list algorithm, one per memoized entry pair.
  uint64_t bound_computations = 0;
  uint64_t probes = 0;            ///< leaf-level competitor probes
  uint64_t pq_pops = 0;           ///< priority-queue pops across all probes

  /// Adds every counter (and the nested IoStats) to the global metric
  /// registry under `prefix`: e.g. "rstknn" yields rstknn.expansions, ...,
  /// rstknn.io.node_reads. The searchers call this once per completed query.
  void Publish(const std::string& prefix) const;

  /// Accumulates another query's stats into this one (batch aggregation).
  RstknnStats& Merge(const RstknnStats& other);
};

struct RstknnResult {
  std::vector<ObjectId> answers;  ///< ascending object ids
  RstknnStats stats;
};

/// Branch-and-bound RSTkNN over an IUR-/CIUR-tree (DESIGN.md §3.2): every
/// live entry is simultaneously a candidate and a contributor; candidates are
/// pruned when MaxST(q,E) < kNNL(E), reported when MinST(q,E) >= kNNU(E),
/// and expanded otherwise. kNNL/kNNU come from contribution lists over the
/// live entry set.
///
/// The searched index is a frozen flat-layout snapshot (rst::frozen): build
/// an IurTree, freeze it once with FrozenTree::Freeze (or load a saved
/// snapshot), then search. The search keys its memos by the snapshot's entry
/// indices; entries are stored in explain preorder, so entry index + 1
/// labels EXPLAIN and heatmap records.
class RstknnSearcher {
 public:
  /// All referents must outlive the searcher.
  RstknnSearcher(const frozen::FrozenTree* tree, const Dataset* dataset,
                 const StScorer* scorer)
      : tree_(tree), dataset_(dataset), scorer_(scorer) {}

  RstknnResult Search(const RstknnQuery& query,
                      const RstknnOptions& options = RstknnOptions()) const;

 private:
  const frozen::FrozenTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
};

/// Exact oracle by exhaustive pairwise scoring — O(|D|²); tests and tiny
/// benchmarks only.
std::vector<ObjectId> BruteForceRstknn(const Dataset& dataset,
                                       const StScorer& scorer,
                                       const RstknnQuery& query);

/// The 2011 paper's baseline: precompute every object's k-th-best similarity
/// (an offline pass of per-object top-k searches over the tree), then answer
/// each query by a full scan comparing sim(o, q) against the stored
/// threshold.
class PrecomputeBaseline {
 public:
  PrecomputeBaseline(const IurTree* tree, const Dataset* dataset,
                     const StScorer* scorer)
      : tree_(tree), dataset_(dataset), scorer_(scorer) {}

  /// Runs the offline pass for `k`. Charges the (large) precompute I/O to
  /// `stats`; records a `baseline.build` span on `trace` and publishes
  /// baseline.build.ms / baseline.builds to the registry.
  void Build(size_t k, IoStats* stats = nullptr,
             obs::QueryTrace* trace = nullptr);

  bool built() const { return k_ > 0; }
  size_t k() const { return k_; }

  /// Answers a query with the precomputed thresholds. `query.k` must equal
  /// the built k. Charges the scan I/O (all object pages); records a
  /// `baseline.scan` span on `trace`.
  RstknnResult Query(const RstknnQuery& query,
                     obs::QueryTrace* trace = nullptr) const;

 private:
  const IurTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
  size_t k_ = 0;
  /// kth_score_[o] = similarity of o's k-th most similar other object
  /// (-1 when fewer than k others exist).
  std::vector<double> kth_score_;
  /// Per-object top-(k+1) competitors, kept so a query that is itself a
  /// dataset object can be discounted from the threshold.
  std::vector<std::vector<TopKResult>> tops_;
  uint64_t object_scan_bytes_ = 0;
};

}  // namespace rst

#endif  // RST_RSTKNN_RSTKNN_H_
