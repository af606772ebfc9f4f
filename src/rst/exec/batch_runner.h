#ifndef RST_EXEC_BATCH_RUNNER_H_
#define RST_EXEC_BATCH_RUNNER_H_

#include <vector>

#include "rst/data/dataset.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/obs/journal.h"
#include "rst/rstknn/rstknn.h"
#include "rst/shard/sharded_index.h"
#include "rst/shard/sharded_search.h"

namespace rst {

namespace obs {
class SlowQueryLog;
class TraceEventWriter;
class WorkloadRecorder;
}  // namespace obs

namespace exec {

/// Flattens RstknnStats into the journal's stats block (rst::obs cannot see
/// rstknn types, so the bridge lives here).
obs::JournalStats ToJournalStats(const RstknnStats& stats);

/// Builds one workload-journal record from an executed query: query object,
/// wall time, flattened stats and the FNV-1a64 answer digest. Shared by the
/// batch runner and the load driver's open-loop path.
obs::JournalQueryRecord MakeJournalRecord(uint64_t index,
                                          const RstknnQuery& query,
                                          const RstknnResult& result,
                                          double wall_ms);

/// Aggregate accounting for one batch run.
struct BatchStats {
  /// Sum of every query's RstknnStats.
  RstknnStats total;
  /// Sum of every query's shard triage outcomes; zero over a FrozenTree.
  shard::ShardedStats shards;
  uint64_t queries = 0;
  uint64_t answers = 0;  ///< total result rows across the batch
  double wall_ms = 0.0;
  /// Per-worker time spent inside queries (indexed by worker id); the
  /// imbalance between entries is the scheduling overhead to look at.
  std::vector<double> worker_busy_ms;
};

/// The one executor of RSTkNN queries: evaluates a batch concurrently over a
/// shared read-only index + Dataset, where the index is either one
/// FrozenTree (RstknnSearcher) or a ShardedIndex (ShardedSearcher, shards
/// run serially on the query's worker — ParallelFor does not nest, and
/// query-major parallelism already fills the pool). A single query is a
/// batch of one; ThreadPool(1) runs it inline on the caller.
///
/// Determinism contract: results are written into slots keyed by query index
/// and each query runs the unmodified single-query algorithm, so the output
/// vector is byte-identical to running the same queries serially — at any
/// thread count, regardless of scheduling.
///
/// What is shared vs. per-worker: the index, dataset and scorer are shared
/// read-only; each worker owns a ProbeScratch, an RstknnStats accumulator and
/// a busy-time stopwatch, so the query hot path takes no locks. Per-query
/// registry publishes are suppressed and replaced by ONE per-batch
/// aggregated publish (rstknn.* and rstknn.shard.* totals plus exec.batch.*
/// timings, including the per-query exec.batch.queue_wait_ms histogram —
/// time between batch start and a query's first instruction on a worker).
///
/// Instruments attached to `options` describe the whole batch. A non-null
/// options.trace, options.explain, options.profiler or options.heatmap is
/// filled with every query of the batch: each query records into a private
/// instance (traces, recorders and profilers per query, heatmaps per
/// worker), and after the join the runner merges them into the caller's in
/// query-index order, so the merged output is identical at any thread count
/// apart from timing fields. The explain recorder and the profiler are reset
/// at batch start, as Search resets them per query; the trace and the
/// heatmap accumulate across batches. A batch of one therefore records
/// exactly what a direct RstknnSearcher::Search would. Private instances are
/// created only for attached instruments — the bare path allocates nothing
/// per query. Over a ShardedIndex options.explain must be null (the
/// scatter-gather search rejects it), and the trace stays empty because the
/// per-shard searches record no spans.
///
/// Runner-level sinks: set_slow_log captures over-threshold queries with a
/// private trace (+ explain JSON over a FrozenTree); set_profiling gives each
/// worker a PhaseProfiler so every query publishes rstknn.phase.*
/// histograms; set_trace_events emits a `run` slice per query on its
/// worker's track (queue wait as an arg), and 1-in-N sampled queries also
/// serialize their span tree under the run slice plus a `queue_wait` slice
/// on a dedicated queue track; set_journal appends sampled queries to a
/// workload journal.
class BatchRunner {
 public:
  /// All referents must outlive the runner. `pool` is borrowed, not owned —
  /// callers typically keep one pool for many batches.
  BatchRunner(const frozen::FrozenTree* tree, const Dataset* dataset,
              const StScorer* scorer, ThreadPool* pool)
      : tree_(tree), dataset_(dataset), scorer_(scorer), pool_(pool) {}
  /// Same, over a sharded forest (DESIGN.md §15).
  BatchRunner(const shard::ShardedIndex* index, const Dataset* dataset,
              const StScorer* scorer, ThreadPool* pool)
      : index_(index), dataset_(dataset), scorer_(scorer), pool_(pool) {}

  /// Attaches a slow-query capture sink for RunRstknn (see the class comment;
  /// the log must outlive the runner's batches). Null disables capture — the
  /// default, and the zero-overhead path. Read the log only between batches
  /// (its Snapshot/ToJson are quiesced-only).
  void set_slow_log(obs::SlowQueryLog* slow_log) { slow_log_ = slow_log; }

  /// Enables per-query rstknn.phase.* histograms for RunRstknn (see the
  /// class comment). Off by default — the zero-overhead path.
  void set_profiling(bool profiling) { profiling_ = profiling; }

  /// Attaches a Chrome trace-event writer for RunRstknn (see the class
  /// comment; the writer must outlive the runner's batches). Null disables
  /// emission — the default.
  void set_trace_events(obs::TraceEventWriter* trace_events) {
    trace_events_ = trace_events;
  }

  /// Attaches an open workload journal for RunRstknn: every sampled query
  /// (WorkloadRecorder::ShouldSample over the query's batch index) appends
  /// one record — query object, wall/phase timings, stats and answer
  /// digest. Append is thread-safe; records land in completion order and
  /// carry the index, so replay restores capture order. Null disables
  /// capture — the default.
  void set_journal(obs::WorkloadRecorder* journal) { journal_ = journal; }

  /// Runs every query through the index's searcher. `options.scratch` and
  /// `options.publish_metrics` are overridden per worker, and the
  /// instruments are handled as the class comment describes.
  std::vector<RstknnResult> RunRstknn(const std::vector<RstknnQuery>& queries,
                                      const RstknnOptions& options,
                                      BatchStats* batch_stats = nullptr) const;

 private:
  const frozen::FrozenTree* tree_ = nullptr;
  const shard::ShardedIndex* index_ = nullptr;
  const Dataset* dataset_;
  const StScorer* scorer_;
  ThreadPool* pool_;
  obs::SlowQueryLog* slow_log_ = nullptr;
  obs::TraceEventWriter* trace_events_ = nullptr;
  obs::WorkloadRecorder* journal_ = nullptr;
  bool profiling_ = false;
};

}  // namespace exec
}  // namespace rst

#endif  // RST_EXEC_BATCH_RUNNER_H_
