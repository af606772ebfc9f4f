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
class HeatmapRecorder;
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
/// batch runner, the serial CLI path, the load driver and rst_replay.
obs::JournalQueryRecord MakeJournalRecord(uint64_t index,
                                          const RstknnQuery& query,
                                          const RstknnResult& result,
                                          double wall_ms);

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

/// Evaluates batches of RSTkNN queries concurrently over a shared read-only
/// FrozenTree + Dataset.
///
/// Determinism contract: results are written into slots keyed by query index
/// and each query runs the unmodified single-query algorithm, so the output
/// vector is byte-identical to running the same queries serially — at any
/// thread count, regardless of scheduling.
///
/// What is shared vs. per-worker: the tree, dataset, scorer and (optional)
/// BufferPool are shared read-only/thread-safe; each worker owns a
/// ProbeScratch, an RstknnStats accumulator and a busy-time stopwatch, so
/// the query hot path takes no locks. A caller-supplied options.trace would
/// be SHARED across workers — traces are single-threaded by design, so it is
/// forced to null; with a slow-query log attached (set_slow_log) each query
/// instead gets its own private QueryTrace + ExplainRecorder, which is safe,
/// and over-threshold queries are captured in full. Per-query registry
/// publishes are suppressed and replaced by ONE per-batch aggregated publish
/// (rstknn.* totals plus exec.batch.* timings, including the per-query
/// exec.batch.queue_wait_ms histogram — time between batch start and a
/// query's first instruction on a worker).
///
/// Profiling (DESIGN.md §12): set_profiling(true) gives each worker a
/// private obs::PhaseProfiler so RunRstknn attributes every query's wall
/// time into the rstknn.phase.* histograms (histogram Record is lock-free,
/// so per-query publishes from workers are safe). set_trace_events attaches
/// a Chrome trace-event writer: every query emits a `run` slice on its
/// worker's track (queue wait as an arg), and 1-in-N sampled queries
/// additionally serialize their full span tree nested under the run slice
/// plus a `queue_wait` slice on a dedicated queue track.
class BatchRunner {
 public:
  /// All referents must outlive the runner. `pool` is borrowed, not owned —
  /// callers typically keep one pool for many batches.
  BatchRunner(const frozen::FrozenTree* tree, const Dataset* dataset,
              const StScorer* scorer, ThreadPool* pool)
      : tree_(tree), dataset_(dataset), scorer_(scorer), pool_(pool) {}

  /// Attaches a slow-query capture sink for RunRstknn (see the class comment;
  /// the log must outlive the runner's batches). Null disables capture — the
  /// default, and the zero-overhead path. Read the log only between batches
  /// (its Snapshot/ToJson are quiesced-only).
  void set_slow_log(obs::SlowQueryLog* slow_log) { slow_log_ = slow_log; }

  /// Enables per-phase latency attribution for RunRstknn (see the class
  /// comment). Off by default — the zero-overhead path.
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

  /// Attaches a cross-batch index heatmap for RunRstknn. Each worker feeds
  /// a private recorder (the searcher hot path stays lock-free); the
  /// workers' recorders are merged into `heatmap` after the join, so totals
  /// reconcile exactly against BatchStats::total at any thread count. The
  /// recorder is not reset — successive batches accumulate. Null disables —
  /// the default.
  void set_heatmap(obs::HeatmapRecorder* heatmap) { heatmap_ = heatmap; }

  /// Runs every query through RstknnSearcher::Search. `options.trace`,
  /// `options.scratch` and `options.explain` are overridden per worker;
  /// `options.pool` (real-I/O mode) is honored and requires the
  /// concurrent-reader-safe BufferPool.
  std::vector<RstknnResult> RunRstknn(const std::vector<RstknnQuery>& queries,
                                      const RstknnOptions& options,
                                      BatchStats* batch_stats = nullptr) const;

 private:
  const frozen::FrozenTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
  ThreadPool* pool_;
  obs::SlowQueryLog* slow_log_ = nullptr;
  obs::TraceEventWriter* trace_events_ = nullptr;
  obs::WorkloadRecorder* journal_ = nullptr;
  obs::HeatmapRecorder* heatmap_ = nullptr;
  bool profiling_ = false;
};

}  // namespace exec
}  // namespace rst

#endif  // RST_EXEC_BATCH_RUNNER_H_
