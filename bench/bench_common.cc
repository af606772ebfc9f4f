#include "bench_common.h"

#include <cstdlib>
#include <map>
#include <thread>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/exec/batch_runner.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metrics.h"

namespace rst::bench {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

constexpr int kColWidth = 13;

}  // namespace

size_t DefaultObjects() {
  static const size_t objects = EnvSize("RST_BENCH_OBJECTS", 20000);
  return objects;
}

size_t Reps() {
  static const size_t reps = EnvSize("RST_BENCH_REPS", 2);
  return reps;
}

size_t Threads() {
  static const size_t threads = EnvSize("RST_BENCH_THREADS", 1);
  return threads;
}

exec::ThreadPool& SharedPool() {
  // rst-lint: allow(raw-new-delete) leaky singleton; pool outlives main
  static auto* pool = new exec::ThreadPool(Threads());
  return *pool;
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintHeader(const std::vector<std::string>& cols) {
  for (const std::string& c : cols) std::printf("%-*s", kColWidth, c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < cols.size() * kColWidth; ++i) std::printf("-");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%-*s", kColWidth, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtInt(uint64_t v) { return std::to_string(v); }

void AppendEnvJson(obs::JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("hardware_threads");
  writer->Uint(std::thread::hardware_concurrency());
  // simd_level / force_scalar / build_type: which kernel dispatch and build
  // flavor produced these numbers — captures are not comparable without it.
  obs::AppendProvenanceJson(writer);
  writer->Key("objects");
  writer->Uint(DefaultObjects());
  writer->Key("reps");
  writer->Uint(Reps());
  writer->Key("threads");
  writer->Uint(Threads());
  writer->EndObject();
}

void EmitFigureMetrics(const std::string& figure) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String(figure);
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("metrics");
  obs::MetricRegistry::Global().Snapshot().AppendJson(&writer);
  writer.EndObject();
  const std::string path = figure + ".metrics.json";
  const Status s = WriteStringToFileAtomic(path, writer.TakeString());
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return;
  }
  std::printf("\n[metrics: %s]\n", path.c_str());
}

const ExtEnv& CachedExtEnv(const ExtParams& params) {
  // rst-lint: allow(raw-new-delete) leaky build cache shared across points
  static auto* cache = new std::map<std::string, ExtEnv*>();
  char key[128];
  std::snprintf(key, sizeof(key), "%zu|%d|%d", params.num_objects,
                static_cast<int>(params.weighting), params.yelp ? 1 : 0);
  auto it = cache->find(key);
  if (it != cache->end()) return *it->second;

  // rst-lint: allow(raw-new-delete) cached for process lifetime, never freed
  auto* env = new ExtEnv{Dataset(), IurTree::Build({}, {})};
  const WeightingOptions weighting{params.weighting, 0.1};
  if (params.yelp) {
    YelpLikeConfig config;
    config.num_objects = params.num_objects / 8 + 1;  // text-heavy => fewer
    env->dataset = GenYelpLike(config, weighting);
  } else {
    FlickrLikeConfig config;
    config.num_objects = params.num_objects;
    env->dataset = GenFlickrLike(config, weighting);
  }
  env->tree = IurTree::BuildFromDataset(env->dataset, {});
  (*cache)[key] = env;
  return *env;
}

ExtPoint RunExtPoint(const ExtParams& params, bool run_selection,
                     bool run_exact) {
  const ExtEnv& env = CachedExtEnv(params);
  TextSimilarity sim(TextMeasure::kSum, &env.dataset.corpus_max());
  StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});
  JointTopKProcessor proc(&env.tree, &env.dataset, &scorer);
  MaxBrstSolver solver(&env.dataset, &scorer);

  ExtPoint point;
  point.ratio = 0.0;  // accumulated below; default 1.0 is for no-selection runs
  const size_t reps = Reps();
  for (size_t rep = 0; rep < reps; ++rep) {
    UserGenConfig ucfg;
    ucfg.num_users = params.num_users;
    ucfg.keywords_per_user = params.ul;
    ucfg.num_unique_keywords = params.uw;
    ucfg.area_extent = params.area;
    ucfg.seed = params.seed + 17 * rep;
    const GeneratedUsers gen = GenUsers(env.dataset, ucfg);
    const double inv_users = 1.0 / static_cast<double>(gen.users.size());

    Stopwatch timer;
    const JointTopKResult baseline = proc.BaselinePerUser(gen.users, params.k);
    point.baseline_mrpu_ms += timer.ElapsedMillis() * inv_users;
    point.baseline_miocpu +=
        static_cast<double>(baseline.io.TotalIos()) * inv_users;

    timer.Restart();
    const JointTopKResult joint = proc.Process(gen.users, params.k);
    point.joint_mrpu_ms += timer.ElapsedMillis() * inv_users;
    point.joint_miocpu += static_cast<double>(joint.io.TotalIos()) * inv_users;

    if (run_selection) {
      MaxBrstQuery query;
      query.locations =
          GenCandidateLocations(gen.area, params.num_locations, ucfg.seed);
      query.keywords = gen.candidate_keywords;
      query.ws = params.ws;
      query.k = params.k;

      size_t exact_cov = 0;
      if (run_exact) {
        timer.Restart();
        const MaxBrstResult exact =
            solver.Solve(gen.users, joint.rsk, query, KeywordSelect::kExact);
        point.exact_sel_ms += timer.ElapsedMillis();
        exact_cov = exact.coverage();
        point.exact_coverage += static_cast<double>(exact_cov);
      }
      timer.Restart();
      const MaxBrstResult approx =
          solver.Solve(gen.users, joint.rsk, query, KeywordSelect::kApprox);
      point.approx_sel_ms += timer.ElapsedMillis();
      if (run_exact) {
        point.ratio += exact_cov == 0
                           ? 1.0
                           : static_cast<double>(approx.coverage()) /
                                 static_cast<double>(exact_cov);
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(reps);
  point.baseline_mrpu_ms *= inv;
  point.joint_mrpu_ms *= inv;
  point.baseline_miocpu *= inv;
  point.joint_miocpu *= inv;
  point.exact_sel_ms *= inv;
  point.approx_sel_ms *= inv;
  point.ratio = run_selection && run_exact ? point.ratio * inv : 1.0;
  point.exact_coverage *= inv;
  return point;
}

const CoreEnv& CachedCoreEnv(const CoreParams& params) {
  // rst-lint: allow(raw-new-delete) leaky build cache shared across points
  static auto* cache = new std::map<std::string, CoreEnv*>();
  char key[160];
  std::snprintf(key, sizeof(key), "%zu|%u|%llu|%d", params.num_objects,
                params.num_clusters,
                static_cast<unsigned long long>(params.seed),
                static_cast<int>(params.weighting));
  auto it = cache->find(key);
  if (it != cache->end()) return *it->second;

  // rst-lint: allow(raw-new-delete) cached for process lifetime, never freed
  auto* env = new CoreEnv{Dataset(),
                          {},
                          {},
                          IurTree::Build({}, {}),
                          IurTree::Build({}, {}),
                          {},
                          {},
                          {},
                          {}};
  GeoNamesLikeConfig config;
  config.num_objects = params.num_objects;
  config.seed = params.seed;
  env->dataset = GenGeoNamesLike(config, {params.weighting, 0.1});

  std::vector<TermVector> docs;
  docs.reserve(env->dataset.size());
  for (const StObject& o : env->dataset.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = params.num_clusters;
  env->clusters = ClusterDocuments(docs, copts).assignment;
  copts.outlier_threshold = 0.15;
  env->clusters_oe = ClusterDocuments(docs, copts).assignment;

  env->iur = IurTree::BuildFromDataset(env->dataset, {});
  env->ciur = IurTree::BuildFromDataset(env->dataset, {}, &env->clusters);
  env->frozen_iur = frozen::FrozenTree::Freeze(env->iur);
  env->frozen_ciur = frozen::FrozenTree::Freeze(env->ciur);
  env->frozen_ciur_oe = frozen::FrozenTree::Freeze(
      IurTree::BuildFromDataset(env->dataset, {}, &env->clusters_oe));
  env->queries =
      SampleQueryObjects(env->dataset, params.num_queries, params.seed + 3);
  (*cache)[key] = env;
  return *env;
}

CorePoint RunCorePoint(const CoreParams& params, bool run_baseline) {
  const CoreEnv& env = CachedCoreEnv(params);
  TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

  CorePoint point;
  const double inv_q = 1.0 / static_cast<double>(env.queries.size());

  auto run_variant = [&](const frozen::FrozenTree& tree,
                         const RstknnOptions& options) -> CoreVariantPoint {
    CoreVariantPoint variant;
    size_t answers = 0;
    Stopwatch timer;
    if (Threads() > 1) {
      // Batched path: same queries, same per-query algorithm, results keyed
      // by query index — only the wall clock changes.
      std::vector<RstknnQuery> queries;
      queries.reserve(env.queries.size());
      for (ObjectId qid : env.queries) {
        const StObject& q = env.dataset.object(qid);
        queries.push_back({q.loc, &q.doc, params.k, qid});
      }
      const exec::BatchRunner runner(&tree, &env.dataset, &scorer,
                                     &SharedPool());
      timer.Restart();
      const std::vector<RstknnResult> results =
          runner.RunRstknn(queries, options);
      for (const RstknnResult& r : results) {
        variant.io += static_cast<double>(r.stats.io.TotalIos()) * inv_q;
        answers += r.answers.size();
      }
    } else {
      RstknnSearcher searcher(&tree, &env.dataset, &scorer);
      for (ObjectId qid : env.queries) {
        const StObject& q = env.dataset.object(qid);
        const RstknnResult r =
            searcher.Search({q.loc, &q.doc, params.k, qid}, options);
        variant.io += static_cast<double>(r.stats.io.TotalIos()) * inv_q;
        answers += r.answers.size();
      }
    }
    variant.query_ms = timer.ElapsedMillis() * inv_q;
    point.answer_size = answers / env.queries.size();
    return variant;
  };

  point.iur = run_variant(env.frozen_iur, {});
  point.ciur = run_variant(env.frozen_ciur, {});
  point.ciur_oe = run_variant(env.frozen_ciur_oe, {});
  RstknnOptions te;
  te.expand = ExpandPolicy::kTextEntropy;
  point.ciur_te = run_variant(env.frozen_ciur_oe, te);

  if (run_baseline) {
    PrecomputeBaseline baseline(&env.iur, &env.dataset, &scorer);
    Stopwatch build_timer;
    baseline.Build(params.k);
    point.baseline_build_ms = build_timer.ElapsedMillis();
    Stopwatch timer;
    for (ObjectId qid : env.queries) {
      const StObject& q = env.dataset.object(qid);
      const RstknnResult r = baseline.Query({q.loc, &q.doc, params.k, qid});
      point.baseline.io += static_cast<double>(r.stats.io.TotalIos()) * inv_q;
    }
    point.baseline.query_ms = timer.ElapsedMillis() * inv_q;
  }
  return point;
}

}  // namespace rst::bench
