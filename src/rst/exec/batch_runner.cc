#include "rst/exec/batch_runner.h"

#include <memory>
#include <string>
#include <utility>

#include "rst/common/check.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/obs/trace_event.h"

namespace rst {
namespace exec {

namespace {

/// Batch-level registry handles, cached once (all updates are lock-free
/// atomics, safe from any worker).
struct BatchMetrics {
  obs::Counter batches;
  obs::Counter batch_queries;
  obs::HistogramRef batch_ms;
  obs::HistogramRef worker_busy_ms;
  obs::HistogramRef queue_wait_ms;
  obs::Counter rstknn_queries;
  obs::Counter rstknn_answers;
  obs::HistogramRef rstknn_query_ms;

  static const BatchMetrics& Get() {
    static const BatchMetrics* metrics = [] {
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      auto* m = new BatchMetrics();
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m->batches = registry.GetCounter(obs::names::kExecBatches);
      m->batch_queries = registry.GetCounter(obs::names::kExecBatchQueries);
      m->batch_ms = registry.GetHistogram(obs::names::kExecBatchMs,
                                          obs::HistogramSpec::LatencyMs());
      m->worker_busy_ms = registry.GetHistogram(
          obs::names::kExecWorkerBusyMs, obs::HistogramSpec::LatencyMs());
      m->queue_wait_ms = registry.GetHistogram(
          obs::names::kExecBatchQueueWaitMs, obs::HistogramSpec::LatencyMs());
      m->rstknn_queries = registry.GetCounter(obs::names::kRstknnQueries);
      m->rstknn_answers = registry.GetCounter(obs::names::kRstknnAnswers);
      m->rstknn_query_ms = registry.GetHistogram(
          obs::names::kRstknnQueryMs, obs::HistogramSpec::LatencyMs());
      return m;
    }();
    return *metrics;
  }
};

/// Per-worker state, cache-line padded so adjacent workers never share a
/// line on the hot path: the reused search scratch, the sum of the worker's
/// query phase profiles, the private heatmap and the accumulators.
/// Deliberately unsynchronized (no RST_GUARDED_BY): slot w is written only
/// by worker w during the loop, and the caller reads the slots only after
/// ParallelFor returns — publication rides the pool's internal mutex
/// handshake (ThreadPool's done_cv_ join), which is exactly the contract the
/// thread-safety analysis checks inside ThreadPool itself.
struct alignas(64) WorkerSlot {
  ProbeScratch scratch;
  obs::PhaseProfiler profiler;
  obs::HeatmapRecorder heatmap;
  RstknnStats stats;
  double busy_ms = 0.0;
  uint64_t answers = 0;
};

/// The private instance query `i` records into when the caller attached the
/// instrument (`per_query` is then sized to the batch and merged after the
/// join); null otherwise.
template <typename T, typename... Args>
T* PerQuery(std::vector<std::unique_ptr<T>>* per_query, size_t i,
            Args&&... args) {
  if (per_query->empty()) return nullptr;
  (*per_query)[i] = std::make_unique<T>(std::forward<Args>(args)...);
  return (*per_query)[i].get();
}

}  // namespace

obs::JournalStats ToJournalStats(const RstknnStats& stats) {
  obs::JournalStats out;
  out.io_node_reads = stats.io.node_reads;
  out.io_payload_blocks = stats.io.payload_blocks;
  out.io_payload_bytes = stats.io.payload_bytes;
  out.entries_created = stats.entries_created;
  out.expansions = stats.expansions;
  out.pruned_entries = stats.pruned_entries;
  out.reported_entries = stats.reported_entries;
  out.bound_computations = stats.bound_computations;
  out.probes = stats.probes;
  out.pq_pops = stats.pq_pops;
  return out;
}

obs::JournalQueryRecord MakeJournalRecord(uint64_t index,
                                          const RstknnQuery& query,
                                          const RstknnResult& result,
                                          double wall_ms) {
  obs::JournalQueryRecord record;
  record.index = index;
  record.x = query.loc.x;
  record.y = query.loc.y;
  record.k = query.k;
  record.self = query.self;  // IurTree::kNoObject maps to kNoSelf verbatim
  if (query.doc != nullptr) {
    record.terms.reserve(query.doc->entries().size());
    for (const TermWeight& tw : query.doc->entries()) {
      record.terms.emplace_back(tw.term, tw.weight);
    }
  }
  record.wall_ms = wall_ms;
  record.answer_count = result.answers.size();
  record.answer_digest = obs::AnswerDigest(result.answers);
  record.stats = ToJournalStats(result.stats);
  return record;
}

uint64_t DatasetDigest(const Dataset& dataset) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis
  const auto mix = [&h](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  };
  for (const StObject& object : dataset.objects()) {
    mix(&object.id, sizeof(object.id));
    mix(&object.loc.x, sizeof(object.loc.x));
    mix(&object.loc.y, sizeof(object.loc.y));
    for (const TermWeight& tw : object.doc.entries()) {
      mix(&tw.term, sizeof(tw.term));
      mix(&tw.weight, sizeof(tw.weight));
    }
  }
  return h;
}

std::vector<RstknnResult> BatchRunner::RunRstknn(
    const std::vector<RstknnQuery>& queries, const RstknnOptions& options,
    BatchStats* batch_stats) const {
  const BatchMetrics& metrics = BatchMetrics::Get();
  const size_t n = queries.size();
  const size_t workers = pool_->num_threads();
  std::vector<RstknnResult> results(n);
  std::vector<WorkerSlot> slots(workers);

  // Batch-level instruments: one PRIVATE instance per query for each of the
  // trace and explain recorder the caller attached (the single-threaded
  // contract holds inside a parallel batch), merged into the caller's after
  // the join in query-index order. Heatmaps and phase profiles are
  // commutative sums, so they stay per worker (WorkerSlot).
  std::vector<std::unique_ptr<obs::QueryTrace>> traces(
      options.trace != nullptr ? n : 0);
  std::vector<std::unique_ptr<obs::ExplainRecorder>> explains(
      options.explain != nullptr ? n : 0);
  if (options.explain != nullptr) options.explain->Reset();
  if (options.profiler != nullptr) options.profiler->Reset();
  if (trace_events_ != nullptr) {
    for (size_t w = 0; w < workers; ++w) {
      trace_events_->AddThreadName(static_cast<uint32_t>(w + 1),
                                   "worker " + std::to_string(w));
    }
    trace_events_->AddThreadName(static_cast<uint32_t>(workers + 1), "queue");
  }

  // A journal with a latency threshold records the trace and EXPLAIN of the
  // queries it admits, so every query needs both.
  const bool capture_slow = journal_ != nullptr && journal_->slow_ms() >= 0.0;
  const RstknnSearcher searcher(tree_, dataset_, scorer_);
  Stopwatch wall;
  pool_->ParallelFor(n, /*chunk=*/1, [&](size_t i, size_t w) {
    WorkerSlot& slot = slots[w];
    // Queue wait = batch start → first instruction of this query on a
    // worker. With chunk=1 dispatch that is exactly the time the query sat
    // behind earlier work.
    const double queue_wait_ms = wall.ElapsedMillis();
    metrics.queue_wait_ms.Record(queue_wait_ms);
    double run_start_us = 0.0;
    bool sampled = false;
    if (trace_events_ != nullptr) {
      run_start_us = trace_events_->NowUs();
      sampled = trace_events_->ShouldSample(i);
    }
    Stopwatch query_timer;
    RstknnOptions worker_options = options;
    worker_options.scratch = &slot.scratch;
    worker_options.publish_metrics = false;
    worker_options.heatmap =
        options.heatmap != nullptr ? &slot.heatmap : nullptr;
    // Slow capture and sampled span trees need a trace (and slow capture an
    // explain summary) even when the caller attached none; those live only
    // for this query.
    std::unique_ptr<obs::QueryTrace> capture_trace;
    obs::QueryTrace* trace = PerQuery(&traces, i, obs::names::kTraceRstknn);
    if (trace == nullptr && (capture_slow || sampled)) {
      capture_trace =
          std::make_unique<obs::QueryTrace>(obs::names::kTraceRstknn);
      trace = capture_trace.get();
    }
    obs::ExplainRecorder capture_explain;
    obs::ExplainRecorder* explain = PerQuery(
        &explains, i,
        options.explain != nullptr ? options.explain->max_decisions() : 0);
    if (explain == nullptr && capture_slow) {
      explain = &capture_explain;
    }
    // Search resets the profiler it is given, so each query records into
    // its own and the worker sums them for the caller.
    obs::PhaseProfiler query_phases;
    const bool profiled = options.profiler != nullptr || profiling_;
    worker_options.trace = trace;
    worker_options.explain = explain;
    worker_options.profiler = profiled ? &query_phases : nullptr;

    results[i] = searcher.Search(queries[i], worker_options);
    const double ms = query_timer.ElapsedMillis();
    if (trace != nullptr) trace->Finish();
    if (options.profiler != nullptr) slot.profiler.Merge(query_phases);
    if (journal_ != nullptr && journal_->ShouldRecord(i, ms)) {
      obs::JournalQueryRecord record =
          MakeJournalRecord(i, queries[i], results[i], ms);
      if (profiled) {
        obs::JsonWriter phases;
        query_phases.AppendJson(&phases);
        record.phases_json = phases.TakeString();
      }
      if (capture_slow) {
        record.trace_json = trace->ToJson();
        record.explain_json = explain->ToJson();
      }
      journal_->Append(record);
    }
    if (trace_events_ != nullptr) {
      const uint32_t tid = static_cast<uint32_t>(w + 1);
      trace_events_->AddComplete(
          obs::names::kTraceEventRun, obs::names::kTraceCatExec, tid,
          run_start_us, ms * 1000.0,
          {obs::names::kTraceArgQuery, static_cast<double>(i)},
          {obs::names::kTraceArgQueueWaitMs, queue_wait_ms});
      if (sampled) {
        // The sampled query's wait renders on the shared queue track;
        // every query's wait is still on its run event as an arg.
        trace_events_->AddComplete(
            obs::names::kTraceEventQueueWait, obs::names::kTraceCatExec,
            static_cast<uint32_t>(workers + 1),
            run_start_us - queue_wait_ms * 1000.0, queue_wait_ms * 1000.0,
            {obs::names::kTraceArgQuery, static_cast<double>(i)});
        trace_events_->AddSpanTree(trace->root(), tid, run_start_us);
      }
    }
    metrics.rstknn_query_ms.Record(ms);
    slot.busy_ms += ms;
    slot.answers += results[i].answers.size();
    slot.stats.Merge(results[i].stats);
  });
  const double wall_ms = wall.ElapsedMillis();

  for (const std::unique_ptr<obs::QueryTrace>& trace : traces) {
    options.trace->Merge(*trace);
  }
  for (const std::unique_ptr<obs::ExplainRecorder>& explain : explains) {
    options.explain->Merge(*explain);
  }

  BatchStats aggregate;
  aggregate.queries = n;
  aggregate.wall_ms = wall_ms;
  aggregate.worker_busy_ms.reserve(workers);
  for (const WorkerSlot& slot : slots) {
    if (options.heatmap != nullptr) options.heatmap->Merge(slot.heatmap);
    if (options.profiler != nullptr) options.profiler->Merge(slot.profiler);
    aggregate.total.Merge(slot.stats);
    aggregate.answers += slot.answers;
    aggregate.worker_busy_ms.push_back(slot.busy_ms);
    metrics.worker_busy_ms.Record(slot.busy_ms);
  }
  if (options.heatmap != nullptr) options.heatmap->AddQueries(n);
  // One aggregated publish for the whole batch (the per-query publishes were
  // suppressed above) — the registry sees the same totals as N serial
  // queries, in 1/N the registry traffic.
  aggregate.total.Publish(obs::names::kRstknnPrefix);
  metrics.rstknn_queries.Add(aggregate.queries);
  metrics.rstknn_answers.Add(aggregate.answers);
  metrics.batches.Increment();
  metrics.batch_queries.Add(aggregate.queries);
  metrics.batch_ms.Record(wall_ms);
  if (batch_stats != nullptr) *batch_stats = std::move(aggregate);
  return results;
}

}  // namespace exec
}  // namespace rst
