// Microbenchmarks for the index structures: IUR-tree construction and top-k
// search latency.

#include <benchmark/benchmark.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/topk/topk.h"

namespace rst {
namespace {

struct TopKEnv {
  Dataset dataset;
  IurTree tree = IurTree::Build({}, {});

  static const TopKEnv& Get() {
    static const TopKEnv* env = [] {
      // rst-lint: allow(raw-new-delete) leaky singleton shared by benchmarks
      auto* e = new TopKEnv();
      FlickrLikeConfig config;
      config.num_objects = 20000;
      e->dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
      e->tree = IurTree::BuildFromDataset(e->dataset, {});
      return e;
    }();
    return *env;
  }
};

void BM_IurTreeBuild(benchmark::State& state) {
  const TopKEnv& env = TopKEnv::Get();
  for (auto _ : state) {
    IurTree tree = IurTree::BuildFromDataset(env.dataset, {});
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * env.dataset.size());
}
BENCHMARK(BM_IurTreeBuild)->Unit(benchmark::kMillisecond);

void BM_TopKSearch(benchmark::State& state) {
  const TopKEnv& env = TopKEnv::Get();
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, env.dataset.max_dist()});
  TopKSearcher searcher(&env.tree, &env.dataset, &scorer);
  Rng rng(11);
  for (auto _ : state) {
    const StObject& q = env.dataset.object(
        static_cast<ObjectId>(rng.UniformInt(uint64_t{env.dataset.size()})));
    TopKQuery query{q.loc, &q.doc, static_cast<size_t>(state.range(0)),
                    IurTree::kNoObject};
    benchmark::DoNotOptimize(searcher.Search(query));
  }
}
BENCHMARK(BM_TopKSearch)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace rst
