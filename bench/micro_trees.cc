// Microbenchmarks for the index structures: R-tree bulk load and kNN, IUR-tree
// construction, and top-k search latency.

#include <benchmark/benchmark.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/rtree/rtree.h"
#include "rst/topk/topk.h"

namespace rst {
namespace {

std::vector<std::pair<ObjectId, Rect>> RandomPoints(size_t n) {
  Rng rng(7);
  std::vector<std::pair<ObjectId, Rect>> items;
  for (size_t i = 0; i < n; ++i) {
    items.push_back({static_cast<ObjectId>(i),
                     Rect::FromPoint({rng.Uniform(0, 100),
                                      rng.Uniform(0, 100)})});
  }
  return items;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto items = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto copy = items;
    RTree tree = RTree::BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * items.size());
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeKnn(benchmark::State& state) {
  RTree tree = RTree::BulkLoad(RandomPoints(50000));
  Rng rng(9);
  for (auto _ : state) {
    const Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    benchmark::DoNotOptimize(
        tree.KnnQuery(p, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(10)->Arg(100);

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
