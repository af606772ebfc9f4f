// Ablation (DESIGN.md §3.1): the Cauchy–Schwarz leg of the extended-Jaccard
// node upper bound. With the naive denominator (intersection norms only) the
// bound collapses to 1 on nodes with empty intersections and node-level
// pruning in the RSTkNN branch-and-bound rarely fires; the tightened bound
// is what makes the IUR-tree search practical.

#include "bench_common.h"

#include "rst/common/stopwatch.h"

int main() {
  using namespace rst::bench;
  using namespace rst;
  CoreParams params;
  params.num_objects /= 2;  // the naive bound makes queries very slow
  const CoreEnv& env = CachedCoreEnv(params);

  PrintTitle("Ablation: extended-Jaccard bound tightening  (|D|=" +
             std::to_string(params.num_objects) + ", k=10)");
  PrintHeader({"bound", "query_ms", "entries", "bound_evals", "io"});

  for (EjBoundMode mode : {EjBoundMode::kNaive, EjBoundMode::kCauchySchwarz}) {
    TextSimilarity sim(TextMeasure::kExtendedJaccard, nullptr, mode);
    StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});
    RstknnSearcher searcher(&env.frozen_iur, &env.dataset, &scorer);
    double ms = 0, entries = 0, bounds = 0, io = 0;
    Stopwatch timer;
    for (ObjectId qid : env.queries) {
      const StObject& q = env.dataset.object(qid);
      const RstknnResult r = searcher.Search({q.loc, &q.doc, 10, qid});
      entries += static_cast<double>(r.stats.entries_created);
      bounds += static_cast<double>(r.stats.bound_computations);
      io += static_cast<double>(r.stats.io.TotalIos());
    }
    ms = timer.ElapsedMillis() / static_cast<double>(env.queries.size());
    const double inv = 1.0 / static_cast<double>(env.queries.size());
    PrintRow({mode == EjBoundMode::kNaive ? "naive" : "cauchy-schwarz",
              Fmt(ms), Fmt(entries * inv, 0), Fmt(bounds * inv, 0),
              Fmt(io * inv, 0)});
  }
  std::printf("\n(The two variants return identical answer sets; both are\n"
              "verified against the brute-force oracle in the test suite.)\n");
  EmitFigureMetrics("fig_core_ablation_bounds");
  return 0;
}
