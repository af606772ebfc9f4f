// Load driver (DESIGN.md §12.5): replays a batch of RSTkNN queries against
// one prebuilt, frozen CIUR-tree in two load models and writes BENCH_profile.json
// with throughput and latency percentiles.
//
//   closed loop — a fixed worker pool (the rst::exec::BatchRunner) drains
//     the query list as fast as it can. Latency is pure service time; the
//     headline number is throughput.
//   open loop — queries ARRIVE on a fixed-rate schedule (RST_LOAD_QPS) and a
//     query's latency is measured from its scheduled arrival, not from when
//     a worker got around to it. A system that can't keep up shows the
//     backlog in its tail percentiles instead of silently slowing the
//     request generator (coordinated omission).
//
// Both modes run with per-phase profiling enabled, so the rstknn.phase.*
// histograms in the emitted registry snapshot attribute where the time went.
//
// Env knobs (on top of bench_common's RST_BENCH_OBJECTS/REPS/THREADS):
//   RST_LOAD_QUERIES — queries replayed per mode (default 64; the sampled
//                      query objects are cycled to reach the count)
//   RST_LOAD_MODE    — closed | open | both (default both)
//   RST_LOAD_QPS     — open-loop arrival rate (default 200)
//
// Flags:
//   --journal-out FILE — capture the load as a replayable workload journal
//     (DESIGN.md §14). The generated dataset is materialized next to it as
//     FILE.data.tsv and referenced from the journal header, so
//     `rst_replay --journal FILE` works standalone. When both load modes
//     run, the closed loop is the one captured (the open loop re-runs the
//     same queries and would duplicate every record).

#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/data/csv.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/obs/phase_timer.h"

namespace {

using rst::bench::Fmt;
using rst::bench::FmtInt;

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::string EnvMode() {
  const char* value = std::getenv("RST_LOAD_MODE");
  if (value == nullptr) return "both";
  const std::string mode(value);
  return mode == "closed" || mode == "open" ? mode : "both";
}

struct ModeResult {
  std::string mode;
  size_t queries = 0;
  size_t workers = 1;
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  rst::obs::HistogramSnapshot latency;    // per-query latency
  rst::obs::HistogramSnapshot queue_wait; // dispatch wait (closed loop only)
};

void AppendHistogramSummary(const rst::obs::HistogramSnapshot& h,
                            rst::obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("count");
  w->Uint(h.count);
  w->Key("mean_ms");
  w->Double(h.Mean());
  w->Key("p50_ms");
  w->Double(h.Percentile(0.50));
  w->Key("p95_ms");
  w->Double(h.Percentile(0.95));
  w->Key("p99_ms");
  w->Double(h.Percentile(0.99));
  w->Key("max_ms");
  w->Double(h.max);
  w->EndObject();
}

/// Builds the replayed query list by cycling the environment's sampled query
/// objects up to `count`.
std::vector<rst::RstknnQuery> BuildQueries(const rst::bench::CoreEnv& env,
                                           size_t k, size_t count) {
  std::vector<rst::RstknnQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const rst::ObjectId qid = env.queries[i % env.queries.size()];
    const rst::StObject& q = env.dataset.object(qid);
    queries.push_back({q.loc, &q.doc, k, qid});
  }
  return queries;
}

ModeResult RunClosed(const rst::bench::CoreEnv& env, const rst::StScorer& scorer,
                     const std::vector<rst::RstknnQuery>& queries,
                     size_t workers, rst::obs::WorkloadRecorder* journal) {
  rst::exec::ThreadPool pool(workers);
  rst::exec::BatchRunner runner(&env.frozen_ciur, &env.dataset, &scorer,
                                &pool);
  runner.set_profiling(true);
  if (journal != nullptr && journal->is_open()) runner.set_journal(journal);

  // Per-query latencies land in the registry (the runner records
  // rstknn.query.ms and exec.batch.queue_wait_ms for every query); the delta
  // against a pre-run snapshot isolates exactly this run.
  const rst::obs::MetricsSnapshot before =
      rst::obs::MetricRegistry::Global().Snapshot();
  rst::exec::BatchStats stats;
  runner.RunRstknn(queries, {}, &stats);
  const rst::obs::MetricsSnapshot delta =
      rst::obs::MetricRegistry::Global().Snapshot().Delta(before);

  ModeResult result;
  result.mode = "closed";
  result.queries = queries.size();
  result.workers = workers;
  result.wall_ms = stats.wall_ms;
  result.throughput_qps = stats.wall_ms > 0
                              ? 1000.0 * static_cast<double>(queries.size()) /
                                    stats.wall_ms
                              : 0.0;
  auto it = delta.histograms.find(rst::obs::names::kRstknnQueryMs);
  if (it != delta.histograms.end()) result.latency = it->second;
  it = delta.histograms.find(rst::obs::names::kExecBatchQueueWaitMs);
  if (it != delta.histograms.end()) result.queue_wait = it->second;
  return result;
}

ModeResult RunOpen(const rst::bench::CoreEnv& env, const rst::StScorer& scorer,
                   const std::vector<rst::RstknnQuery>& queries,
                   size_t workers, double qps,
                   rst::obs::WorkloadRecorder* journal) {
  using Clock = std::chrono::steady_clock;
  const rst::RstknnSearcher searcher(&env.frozen_ciur, &env.dataset,
                                     &scorer);

  // Arrival-to-completion latency per query, one single-writer histogram per
  // worker, merged after the join.
  std::vector<rst::obs::Histogram> latencies;
  latencies.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    latencies.emplace_back(rst::obs::HistogramSpec::LatencyMs());
  }

  std::atomic<size_t> next{0};
  const Clock::time_point epoch = Clock::now();
  const double interval_s = qps > 0 ? 1.0 / qps : 0.0;
  auto worker_loop = [&](size_t w) {
    rst::ProbeScratch scratch;
    rst::obs::PhaseProfiler profiler;
    rst::RstknnOptions options;
    options.scratch = &scratch;
    options.profiler = &profiler;
    options.publish_metrics = false;  // the phase histograms still publish
    for (;;) {
      // rst-atomics: work-distribution cursor; each index is processed by
      // exactly one claimant and results are published via thread join.
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) break;
      const Clock::time_point arrival =
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(interval_s *
                                                    static_cast<double>(i)));
      // A worker idles until its query's scheduled arrival; a late pickup
      // (all workers busy) skips the wait and the backlog shows up in the
      // measured latency.
      std::this_thread::sleep_until(arrival);
      const rst::RstknnResult result = searcher.Search(queries[i], options);
      const double latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - arrival)
              .count();
      latencies[w].Record(latency_ms);
      if (journal != nullptr && journal->is_open() &&
          journal->ShouldSample(i)) {
        // Append serializes outside its lock, so concurrent workers only
        // contend on the final fwrite.
        journal->Append(
            rst::exec::MakeJournalRecord(i, queries[i], result, latency_ms));
      }
    }
  };

  rst::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker_loop, w);
  for (std::thread& t : threads) t.join();

  ModeResult result;
  result.mode = "open";
  result.queries = queries.size();
  result.workers = workers;
  result.wall_ms = wall.ElapsedMillis();
  result.throughput_qps =
      result.wall_ms > 0 ? 1000.0 * static_cast<double>(queries.size()) /
                               result.wall_ms
                         : 0.0;
  rst::obs::Histogram merged(rst::obs::HistogramSpec::LatencyMs());
  for (const rst::obs::Histogram& h : latencies) {
    const rst::Status s = merged.Merge(h.snapshot());
    if (!s.ok()) std::fprintf(stderr, "merge: %s\n", s.ToString().c_str());
  }
  result.latency = merged.snapshot();
  return result;
}

/// Journal-header measure token ("ej"/"cos"/"sum" — the vocabulary
/// rstknn_cli's --measure flag and rst_replay consume; rst::TextMeasureName
/// returns the long display names).
const char* MeasureToken(rst::TextMeasure measure) {
  switch (measure) {
    case rst::TextMeasure::kCosine:
      return "cos";
    case rst::TextMeasure::kSum:
      return "sum";
    default:
      return "ej";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rst::bench;

  std::string journal_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal-out") == 0 && i + 1 < argc) {
      journal_out = argv[++i];
    }
  }

  CoreParams params;
  const CoreEnv& env = CachedCoreEnv(params);
  rst::TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  rst::StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

  const size_t num_queries = EnvSize("RST_LOAD_QUERIES", 64);
  const double qps = static_cast<double>(EnvSize("RST_LOAD_QPS", 200));
  const size_t workers = Threads();
  const std::string mode = EnvMode();
  const std::vector<rst::RstknnQuery> queries =
      BuildQueries(env, params.k, num_queries);

  rst::obs::WorkloadRecorder journal;
  if (!journal_out.empty()) {
    // The generated dataset must outlive this process for the journal to be
    // replayable; materialize it next to the journal and reference it from
    // the header.
    const std::string data_path = journal_out + ".data.tsv";
    rst::Status s = rst::SaveDatasetIds(env.dataset, data_path);
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out dataset: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    rst::obs::JournalHeader header;
    header.label = "load_driver";
    header.data = data_path;
    header.algo = "probe";
    header.tree = "ciur";
    header.measure = MeasureToken(params.measure);
    header.weighting = rst::WeightingName(params.weighting);
    header.alpha = params.alpha;
    header.threads = workers;
    s = journal.Open(journal_out, header);
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::vector<ModeResult> series;
  if (mode != "open") {
    series.push_back(RunClosed(env, scorer, queries, workers, &journal));
  }
  if (mode != "closed") {
    // Capture the open loop only when the closed loop didn't run — both
    // replay the same query list, and duplicating every record would make
    // the journal ambiguous.
    series.push_back(RunOpen(env, scorer, queries, workers, qps,
                             mode == "open" ? &journal : nullptr));
  }

  PrintTitle("load_driver: RSTkNN under load  (|D|=" +
             std::to_string(env.dataset.size()) + ", " +
             std::to_string(num_queries) + " queries, k=" +
             std::to_string(params.k) + ", " + std::to_string(workers) +
             " worker(s))");
  PrintHeader({"mode", "qps", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
  for (const ModeResult& r : series) {
    PrintRow({r.mode, Fmt(r.throughput_qps, 1), Fmt(r.latency.Percentile(0.50)),
              Fmt(r.latency.Percentile(0.95)), Fmt(r.latency.Percentile(0.99)),
              Fmt(r.latency.max)});
  }
  std::printf(
      "\nNote: closed-loop latency is service time; open-loop latency is\n"
      "measured from each query's scheduled arrival (%.0f qps), so it\n"
      "includes time spent queued behind a saturated worker pool.\n",
      qps);

  rst::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("load_driver");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(env.dataset.size());
  writer.Key("k");
  writer.Uint(params.k);
  writer.Key("open_loop_qps");
  writer.Double(qps);
  writer.Key("series");
  writer.BeginArray();
  for (const ModeResult& r : series) {
    writer.BeginObject();
    writer.Key("mode");
    writer.String(r.mode);
    writer.Key("workers");
    writer.Uint(r.workers);
    writer.Key("queries");
    writer.Uint(r.queries);
    writer.Key("wall_ms");
    writer.Double(r.wall_ms);
    writer.Key("throughput_qps");
    writer.Double(r.throughput_qps);
    writer.Key("latency_ms");
    AppendHistogramSummary(r.latency, &writer);
    if (r.queue_wait.count > 0) {
      writer.Key("queue_wait_ms");
      AppendHistogramSummary(r.queue_wait, &writer);
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  if (rst::WriteStringToFileAtomic("BENCH_profile.json", writer.TakeString())
          .ok()) {
    std::printf("[series: BENCH_profile.json]\n");
  }

  if (journal.is_open()) {
    const uint64_t recorded = journal.recorded();
    const rst::Status s = journal.Close();
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[journal: %s (%llu records)]\n", journal_out.c_str(),
                static_cast<unsigned long long>(recorded));
  }

  EmitFigureMetrics("load_driver");
  return 0;
}
