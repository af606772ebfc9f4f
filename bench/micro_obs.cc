// Instrumentation overhead of the search's observer seam: serial
// RstknnSearcher::Search on the CoreParams shape (frozen IUR-tree) with
// nothing attached, with each instrument alone — phase profiler, span trace,
// EXPLAIN (summary only), index heatmap — and with all four.
//
// Each round runs every query once per row, interleaving the rows per query
// in a rotating order, for at least ten rounds; the table reports each row's
// median and quartiles of per-query milliseconds and its median overhead
// against the bare row of the same round. Every row must return the same
// answers.
// The overheads are reported, not gated (the roadmap targets <= 2% for an
// instrument left on for every query).
//
// Besides the console table this writes BENCH_obs.json into the working
// directory, stamped with the host core count and SIMD level.

#include "bench_common.h"

#include <algorithm>
#include <string>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/json.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"

namespace {

/// Which instruments a row attaches, and its samples: per-query
/// milliseconds and overhead against the bare row, one of each per round.
struct Row {
  std::string name;
  bool profiler;
  bool trace;
  bool explain;
  bool heatmap;
  std::vector<double> per_query_ms = {};
  std::vector<double> overhead = {};
};

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main() {
  using namespace rst::bench;

  CoreParams params;
  params.num_queries = 16;
  const CoreEnv& env = CachedCoreEnv(params);
  rst::TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  rst::StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});
  const rst::RstknnSearcher searcher(&env.frozen_iur, &env.dataset, &scorer);
  std::vector<rst::RstknnQuery> queries;
  for (rst::ObjectId qid : env.queries) {
    const rst::StObject& q = env.dataset.object(qid);
    queries.push_back({q.loc, &q.doc, params.k, qid});
  }
  const size_t rounds = std::max<size_t>(10, Reps());

  std::vector<Row> rows = {{"none", false, false, false, false},
                           {"profiler", true, false, false, false},
                           {"trace", false, true, false, false},
                           {"explain", false, false, true, false},
                           {"heatmap", false, false, false, true},
                           {"all", true, true, true, true}};
  rst::ProbeScratch scratch;
  for (size_t round = 0; round < rounds; ++round) {
    // Fresh instruments per row and round; the trace and the heatmap
    // accumulate over the round's queries, as they do over a batch.
    std::vector<rst::obs::PhaseProfiler> profilers(rows.size());
    std::vector<rst::obs::QueryTrace> traces(rows.size());
    std::vector<rst::obs::ExplainRecorder> explains(rows.size());
    std::vector<rst::obs::HeatmapRecorder> heatmaps(rows.size());
    std::vector<rst::RstknnOptions> options(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      options[r].scratch = &scratch;
      if (rows[r].profiler) options[r].profiler = &profilers[r];
      if (rows[r].trace) options[r].trace = &traces[r];
      if (rows[r].explain) options[r].explain = &explains[r];
      if (rows[r].heatmap) options[r].heatmap = &heatmaps[r];
    }
    // Rows interleave per query, in an order rotating with query and round,
    // so machine drift lands on every row alike.
    std::vector<double> round_ms(rows.size(), 0.0);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<rst::ObjectId> reference;
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t r = (i + qi + round) % rows.size();
        const rst::Stopwatch timer;
        const rst::RstknnResult result =
            searcher.Search(queries[qi], options[r]);
        round_ms[r] += timer.ElapsedMillis();
        if (i == 0) reference = result.answers;
        if (result.answers != reference) {
          std::fprintf(stderr, "answer mismatch on row %s\n",
                       rows[r].name.c_str());
          return 1;
        }
      }
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r].per_query_ms.push_back(round_ms[r] /
                                     static_cast<double>(queries.size()));
      rows[r].overhead.push_back(round_ms[r] / round_ms[0] - 1.0);
    }
  }

  PrintTitle("micro_obs: observer instrumentation overhead  (|D|=" +
             std::to_string(env.dataset.size()) + ", " +
             std::to_string(queries.size()) + " queries, k=" +
             std::to_string(params.k) + ", " + std::to_string(rounds) +
             " rounds, serial)");
  PrintHeader({"row", "p25_ms", "median_ms", "p75_ms", "overhead"});
  for (const Row& row : rows) {
    PrintRow({row.name, Fmt(Quantile(row.per_query_ms, 0.25), 3),
              Fmt(Quantile(row.per_query_ms, 0.5), 3),
              Fmt(Quantile(row.per_query_ms, 0.75), 3),
              Fmt(100.0 * Quantile(row.overhead, 0.5), 1) + "%"});
  }

  rst::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("micro_obs");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(env.dataset.size());
  writer.Key("tree");
  writer.String("iur");
  writer.Key("queries");
  writer.Uint(queries.size());
  writer.Key("k");
  writer.Uint(params.k);
  writer.Key("rounds");
  writer.Uint(rounds);
  writer.Key("target_overhead_frac");
  writer.Double(0.02);
  writer.Key("rows");
  writer.BeginArray();
  for (const Row& row : rows) {
    writer.BeginObject();
    writer.Key("row");
    writer.String(row.name);
    writer.Key("query_ms_p25");
    writer.Double(Quantile(row.per_query_ms, 0.25));
    writer.Key("query_ms_median");
    writer.Double(Quantile(row.per_query_ms, 0.5));
    writer.Key("query_ms_p75");
    writer.Double(Quantile(row.per_query_ms, 0.75));
    writer.Key("overhead_frac_median");
    writer.Double(Quantile(row.overhead, 0.5));
    writer.Key("overhead_frac_p25");
    writer.Double(Quantile(row.overhead, 0.25));
    writer.Key("overhead_frac_p75");
    writer.Double(Quantile(row.overhead, 0.75));
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  const rst::Status s =
      rst::WriteStringToFileAtomic("BENCH_obs.json", writer.TakeString());
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write BENCH_obs.json: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("\n[BENCH_obs.json written]\n");
  return 0;
}
