// Ablation (DESIGN.md §3.2): the 2011 paper's literal contribution-list
// branch-and-bound vs. this library's probe-based realization of the same
// kNNL/kNNU bounds. Identical answer sets (enforced by the test suite);
// the contribution lists degrade toward all-pairs bound computations, while
// the probes terminate early per candidate.

#include "bench_common.h"

#include "rst/common/stopwatch.h"

int main() {
  using namespace rst::bench;
  using namespace rst;
  CoreParams params;
  params.num_objects /= 2;  // contribution lists are slow
  const CoreEnv& env = CachedCoreEnv(params);
  TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});
  RstknnSearcher searcher(&env.frozen_iur, &env.dataset, &scorer);

  PrintTitle("Ablation: contribution lists vs competitor probes  (|D|=" +
             std::to_string(params.num_objects) + ", k=10)");
  PrintHeader({"algorithm", "query_ms", "entries", "bound_evals", "io"});
  for (RstknnAlgorithm algorithm :
       {RstknnAlgorithm::kContributionList, RstknnAlgorithm::kProbe}) {
    RstknnOptions options;
    options.algorithm = algorithm;
    double entries = 0, bounds = 0, io = 0;
    Stopwatch timer;
    for (ObjectId qid : env.queries) {
      const StObject& q = env.dataset.object(qid);
      const RstknnResult r =
          searcher.Search({q.loc, &q.doc, 10, qid}, options);
      entries += static_cast<double>(r.stats.entries_created);
      bounds += static_cast<double>(r.stats.bound_computations);
      io += static_cast<double>(r.stats.io.TotalIos());
    }
    const double inv = 1.0 / static_cast<double>(env.queries.size());
    PrintRow({algorithm == RstknnAlgorithm::kProbe ? "probe"
                                                   : "contrib-list",
              Fmt(timer.ElapsedMillis() * inv), Fmt(entries * inv, 0),
              Fmt(bounds * inv, 0), Fmt(io * inv, 0)});
  }
  EmitFigureMetrics("fig_core_ablation_algorithm");
  return 0;
}
