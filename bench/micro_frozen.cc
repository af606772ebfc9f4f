// Frozen flat-layout index life cycle: STR build, freeze, serialize and
// load, plus RSTkNN query time over the freshly frozen snapshot and over its
// serialize -> load copy. The two query rows must return identical answers
// (the loaded snapshot is byte-identical), so any delta between them is
// timer noise.
//
// Besides the console table this writes BENCH_frozen.json into the working
// directory, including the host core count.

#include "bench_common.h"

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/frozen/frozen.h"
#include "rst/obs/json.h"

namespace {

struct Measurement {
  std::string index;
  double wall_ms = 0;
  size_t answers = 0;
};

}  // namespace

int main() {
  using namespace rst::bench;
  using rst::frozen::FrozenTree;

  CoreParams params;
  params.num_queries = 16;
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

  // --- Index life cycle -----------------------------------------------------
  std::vector<rst::IurTree::Item> items;
  items.reserve(env.dataset.size());
  for (const rst::StObject& o : env.dataset.objects()) {
    items.push_back({o.id, o.loc, &o.doc});
  }
  double build_ms = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    rst::Stopwatch timer;
    const rst::IurTree tree = rst::IurTree::Build(items, {});
    build_ms += timer.ElapsedMillis();
  }
  build_ms /= static_cast<double>(reps);

  rst::Stopwatch lifecycle;
  const FrozenTree frozen = FrozenTree::Freeze(env.ciur);
  const double freeze_ms = lifecycle.ElapsedMillis();
  lifecycle.Restart();
  const std::string bytes = frozen.SerializeToString();
  const double serialize_ms = lifecycle.ElapsedMillis();
  lifecycle.Restart();
  const rst::Result<FrozenTree> loaded = FrozenTree::Deserialize(bytes);
  const double load_ms = lifecycle.ElapsedMillis();
  if (!loaded.ok()) {
    std::fprintf(stderr, "deserialize failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }

  // --- Query traversal: frozen vs loaded-frozen ----------------------------
  std::vector<Measurement> series;
  auto measure = [&](const std::string& index,
                     const rst::RstknnSearcher& searcher) {
    Measurement m;
    m.index = index;
    rst::Stopwatch timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      m.answers = 0;
      for (const rst::RstknnQuery& q : queries) {
        rst::RstknnOptions options;
        options.publish_metrics = false;
        m.answers += searcher.Search(q, options).answers.size();
      }
    }
    m.wall_ms = timer.ElapsedMillis() / static_cast<double>(reps);
    series.push_back(m);
  };
  measure("frozen", rst::RstknnSearcher(&frozen, &env.dataset, &scorer));
  measure("frozen_loaded",
          rst::RstknnSearcher(&loaded.value(), &env.dataset, &scorer));
  for (const Measurement& m : series) {
    if (m.answers != series[0].answers) {
      std::fprintf(stderr, "answer mismatch on index %s\n", m.index.c_str());
      return 1;
    }
  }

  PrintTitle("micro_frozen: frozen flat-layout index  (|D|=" +
             std::to_string(env.dataset.size()) + ", " +
             std::to_string(queries.size()) + " queries, k=" +
             std::to_string(params.k) + ")");
  PrintHeader({"index", "wall_ms", "|ans|"});
  for (const Measurement& m : series) {
    PrintRow({m.index, Fmt(m.wall_ms), FmtInt(m.answers)});
  }
  std::printf("\nbuild: %.2f ms\n", build_ms);
  std::printf("freeze: %.2f ms, serialize: %.2f ms (%zu bytes), load: %.2f ms\n",
              freeze_ms, serialize_ms, bytes.size(), load_ms);

  rst::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("micro_frozen");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(env.dataset.size());
  writer.Key("queries");
  writer.Uint(queries.size());
  writer.Key("k");
  writer.Uint(params.k);
  writer.Key("build_ms");
  writer.Double(build_ms);
  writer.Key("freeze_ms");
  writer.Double(freeze_ms);
  writer.Key("serialize_ms");
  writer.Double(serialize_ms);
  writer.Key("serialized_bytes");
  writer.Uint(bytes.size());
  writer.Key("load_ms");
  writer.Double(load_ms);
  writer.Key("series");
  writer.BeginArray();
  for (const Measurement& m : series) {
    writer.BeginObject();
    writer.Key("index");
    writer.String(m.index);
    writer.Key("wall_ms");
    writer.Double(m.wall_ms);
    writer.Key("answers");
    writer.Uint(m.answers);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  if (rst::WriteStringToFileAtomic("BENCH_frozen.json", writer.TakeString())
          .ok()) {
    std::printf("\nwrote BENCH_frozen.json\n");
  }
  return 0;
}
