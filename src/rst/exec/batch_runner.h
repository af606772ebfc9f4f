#ifndef RST_EXEC_BATCH_RUNNER_H_
#define RST_EXEC_BATCH_RUNNER_H_

#include <vector>

#include "rst/data/dataset.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/obs/journal.h"
#include "rst/rstknn/rstknn.h"

namespace rst {

namespace obs {
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

/// FNV-1a64 over every object's id, coordinates and (term, weight) pairs,
/// in id order, each value's bytes in memory order (little-endian on every
/// supported target): the `dataset_digest` a journal header names its
/// dataset by. Weights are the weighted vectors, so a file digests the same
/// only when loaded under the same weighting.
uint64_t DatasetDigest(const Dataset& dataset);

/// Aggregate accounting for one batch run.
struct BatchStats {
  /// Sum of every query's RstknnStats.
  RstknnStats total;
  uint64_t queries = 0;
  uint64_t answers = 0;  ///< total result rows across the batch
  double wall_ms = 0.0;
  /// Per-worker time spent inside queries (indexed by worker id); the
  /// imbalance between entries is the scheduling overhead to look at.
  std::vector<double> worker_busy_ms;
};

/// The one executor of RSTkNN queries: evaluates a batch concurrently over a
/// shared read-only FrozenTree + Dataset with RstknnSearcher. A single query
/// is a batch of one; ThreadPool(1) runs it inline on the caller.
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
/// aggregated publish (rstknn.* totals plus exec.batch.* timings, including
/// the per-query exec.batch.queue_wait_ms histogram — time between batch
/// start and a query's first instruction on a worker).
///
/// Instruments attached to `options` describe the whole batch. A non-null
/// options.trace, options.explain, options.profiler or options.heatmap is
/// filled with every query of the batch: each query records into a private
/// instance (traces and recorders per query, heatmaps and phase profiles
/// per worker), and after the join the runner merges them into the caller's
/// (per-query instances in query-index order), so the merged output is
/// identical at any thread count apart from timing fields. The explain recorder and the profiler are reset
/// at batch start, as Search resets them per query; the trace and the
/// heatmap accumulate across batches. A batch of one therefore records
/// exactly what a direct RstknnSearcher::Search would. Private instances are
/// created only for attached instruments — the bare path allocates nothing
/// per query.
///
/// Runner-level sinks: set_profiling profiles every query, so each one
/// publishes rstknn.phase.* histograms; set_trace_events emits a
/// `run` slice per query on its worker's track (queue wait as an arg), and
/// every N-th query by batch index also serializes its span tree under the
/// run slice plus a `queue_wait` slice on a dedicated queue track;
/// set_journal appends the journal's admitted queries to it.
class BatchRunner {
 public:
  /// All referents must outlive the runner. `pool` is borrowed, not owned —
  /// callers typically keep one pool for many batches.
  BatchRunner(const frozen::FrozenTree* tree, const Dataset* dataset,
              const StScorer* scorer, ThreadPool* pool)
      : tree_(tree), dataset_(dataset), scorer_(scorer), pool_(pool) {}

  /// Enables per-query rstknn.phase.* histograms for RunRstknn (see the
  /// class comment). Off by default — the zero-overhead path.
  void set_profiling(bool profiling) { profiling_ = profiling; }

  /// Attaches a Chrome trace-event writer for RunRstknn (see the class
  /// comment; the writer must outlive the runner's batches). Null disables
  /// emission — the default.
  void set_trace_events(obs::TraceEventWriter* trace_events) {
    trace_events_ = trace_events;
  }

  /// Attaches an open workload journal for RunRstknn: every query that
  /// WorkloadRecorder::ShouldRecord admits (by batch index and wall time)
  /// appends one record — query object, wall/phase timings, stats and answer
  /// digest. While the journal has a slow_ms threshold, every query runs
  /// with a private trace and EXPLAIN recorder (unless the caller attached
  /// its own) and admitted records carry both as JSON. Append is
  /// thread-safe; records land in completion order and carry the index, so
  /// replay restores capture order. Null disables capture — the default.
  void set_journal(obs::WorkloadRecorder* journal) { journal_ = journal; }

  /// Runs every query through RstknnSearcher. `options.scratch` and
  /// `options.publish_metrics` are overridden per worker, and the
  /// instruments are handled as the class comment describes.
  std::vector<RstknnResult> RunRstknn(const std::vector<RstknnQuery>& queries,
                                      const RstknnOptions& options,
                                      BatchStats* batch_stats = nullptr) const;

 private:
  const frozen::FrozenTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
  ThreadPool* pool_;
  obs::TraceEventWriter* trace_events_ = nullptr;
  obs::WorkloadRecorder* journal_ = nullptr;
  bool profiling_ = false;
};

}  // namespace exec
}  // namespace rst

#endif  // RST_EXEC_BATCH_RUNNER_H_
