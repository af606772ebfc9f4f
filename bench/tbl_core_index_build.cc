// Experiment C5 (SIGMOD 2011 evaluation design): index construction cost and
// size for every structure, plus the baseline's precompute pass — the cost
// the branch-and-bound algorithms avoid entirely.

#include "bench_common.h"

#include "rst/common/stopwatch.h"

int main() {
  using namespace rst::bench;
  using namespace rst;
  CoreParams params;
  const CoreEnv& env = CachedCoreEnv(params);
  TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

  PrintTitle("C5: index construction time and size  (|D|=" +
             std::to_string(params.num_objects) + ")");
  PrintHeader({"structure", "build_ms", "size_MB", "nodes", "height"});

  {
    // The spatial-only reference: the same STR packing over the same
    // points, every document empty (the packing reads only locations).
    Stopwatch timer;
    const TermVector no_text;
    std::vector<IurTree::Item> items;
    for (const StObject& o : env.dataset.objects()) {
      items.push_back({o.id, o.loc, &no_text});
    }
    const IurTree str = IurTree::Build(std::move(items), {});
    PrintRow({"str-no-text", Fmt(timer.ElapsedMillis()),
              Fmt(static_cast<double>(str.IndexBytes()) / (1 << 20)),
              FmtInt(str.NodeCount()), FmtInt(str.height())});
  }
  {
    Stopwatch timer;
    const IurTree iur = IurTree::BuildFromDataset(env.dataset, {});
    PrintRow({"iur-tree", Fmt(timer.ElapsedMillis()),
              Fmt(static_cast<double>(iur.IndexBytes()) / (1 << 20)),
              FmtInt(iur.NodeCount()), FmtInt(iur.height())});
  }
  {
    Stopwatch timer;
    std::vector<TermVector> docs;
    for (const StObject& o : env.dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = params.num_clusters;
    const ClusteringResult clusters = ClusterDocuments(docs, copts);
    const double cluster_ms = timer.ElapsedMillis();
    timer.Restart();
    const IurTree ciur =
        IurTree::BuildFromDataset(env.dataset, {}, &clusters.assignment);
    PrintRow({"ciur-tree", Fmt(cluster_ms + timer.ElapsedMillis()),
              Fmt(static_cast<double>(ciur.IndexBytes()) / (1 << 20)),
              FmtInt(ciur.NodeCount()), FmtInt(ciur.height())});
    std::printf("  (text clustering alone: %s ms, %u clusters)\n",
                Fmt(cluster_ms).c_str(), params.num_clusters);
  }
  {
    Stopwatch timer;
    PrecomputeBaseline baseline(&env.iur, &env.dataset, &scorer);
    IoStats io;
    baseline.Build(params.k, &io);
    PrintRow({"B-precompute", Fmt(timer.ElapsedMillis()), "-", "-", "-"});
    std::printf("  (precompute I/O: %llu simulated I/Os for k=%zu)\n",
                static_cast<unsigned long long>(io.TotalIos()), params.k);
  }
  EmitFigureMetrics("tbl_core_index_build");
  return 0;
}
