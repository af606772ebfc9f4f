// Batched RSTkNN throughput: a serial per-query loop vs the
// rst::exec::BatchRunner at 1/2/4/8 threads, all over one shared read-only
// frozen CIUR-tree. The batch path runs the identical per-query algorithm (answers
// are byte-identical by the determinism contract), so any delta is pure
// execution-model overhead or parallel speedup.
//
// Besides the console table this writes BENCH_batch.json into the working
// directory: the measured series plus the host core count, because speedup
// numbers are meaningless without knowing how many cores backed them.

#include "bench_common.h"

#include <thread>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/obs/json.h"

namespace {

struct Measurement {
  std::string mode;
  size_t threads = 1;
  double wall_ms = 0;
  double speedup = 1.0;
  size_t answers = 0;
};

}  // namespace

int main() {
  using namespace rst::bench;
  using rst::exec::BatchRunner;
  using rst::exec::ThreadPool;

  CoreParams params;
  params.num_queries = 32;  // enough per-query work to spread across workers
  const CoreEnv& env = CachedCoreEnv(params);
  rst::TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  rst::StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

  std::vector<rst::RstknnQuery> queries;
  queries.reserve(env.queries.size());
  for (rst::ObjectId qid : env.queries) {
    const rst::StObject& q = env.dataset.object(qid);
    queries.push_back({q.loc, &q.doc, params.k, qid});
  }

  const size_t reps = Reps();
  std::vector<Measurement> series;

  // Serial reference: the plain per-query loop every figure harness uses.
  {
    Measurement m;
    m.mode = "serial";
    const rst::RstknnSearcher searcher(&env.frozen_ciur, &env.dataset,
                                       &scorer);
    rst::Stopwatch timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      m.answers = 0;
      for (const rst::RstknnQuery& q : queries) {
        m.answers += searcher.Search(q, {}).answers.size();
      }
    }
    m.wall_ms = timer.ElapsedMillis() / static_cast<double>(reps);
    series.push_back(m);
  }
  const double serial_ms = series[0].wall_ms;

  for (size_t threads : {1, 2, 4, 8}) {
    Measurement m;
    m.mode = "batch";
    m.threads = threads;
    ThreadPool pool(threads);
    const BatchRunner runner(&env.frozen_ciur, &env.dataset, &scorer, &pool);
    rst::Stopwatch timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      m.answers = 0;
      for (const rst::RstknnResult& r : runner.RunRstknn(queries, {})) {
        m.answers += r.answers.size();
      }
    }
    m.wall_ms = timer.ElapsedMillis() / static_cast<double>(reps);
    m.speedup = m.wall_ms > 0 ? serial_ms / m.wall_ms : 0.0;
    series.push_back(m);
  }

  const unsigned cores = std::thread::hardware_concurrency();
  PrintTitle("micro_batch: batched RSTkNN throughput  (|D|=" +
             std::to_string(env.dataset.size()) + ", " +
             std::to_string(queries.size()) + " queries, k=" +
             std::to_string(params.k) + ", " + std::to_string(cores) +
             " core(s))");
  PrintHeader({"mode", "threads", "wall_ms", "speedup", "|ans|"});
  for (const Measurement& m : series) {
    PrintRow({m.mode, FmtInt(m.threads), Fmt(m.wall_ms), Fmt(m.speedup),
              FmtInt(m.answers)});
  }
  std::printf(
      "\nNote: speedup is vs the serial per-query loop; answers are identical\n"
      "across all rows by the batch determinism contract. Speedup above 1 at\n"
      "N threads requires N physical cores.\n");

  rst::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("micro_batch");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(env.dataset.size());
  writer.Key("queries");
  writer.Uint(queries.size());
  writer.Key("k");
  writer.Uint(params.k);
  writer.Key("series");
  writer.BeginArray();
  for (const Measurement& m : series) {
    writer.BeginObject();
    writer.Key("mode");
    writer.String(m.mode);
    writer.Key("threads");
    writer.Uint(m.threads);
    writer.Key("wall_ms");
    writer.Double(m.wall_ms);
    writer.Key("speedup_vs_serial");
    writer.Double(m.speedup);
    writer.Key("answers");
    writer.Uint(m.answers);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  if (rst::WriteStringToFileAtomic("BENCH_batch.json", writer.TakeString())
          .ok()) {
    std::printf("[series: BENCH_batch.json]\n");
  }

  EmitFigureMetrics("micro_batch");
  return 0;
}
