// Quickstart: build a tiny spatial-textual collection by hand, index it with
// an IUR-tree, and run the two query types of the library — a top-k
// spatial-keyword query on the tree and a reverse spatial-textual kNN
// (RSTkNN) query on its frozen snapshot.
//
//   $ ./quickstart

#include <cstdio>

#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"
#include "rst/rstknn/rstknn.h"
#include "rst/text/vocabulary.h"
#include "rst/topk/topk.h"

using namespace rst;

int main() {
  // --- 1. Build a collection of restaurants (location + menu terms). ---
  Vocabulary vocab;
  Dataset dataset;
  struct Row {
    const char* name;
    double x, y;
    const char* menu;
  };
  const Row rows[] = {
      {"Sakura", 1.0, 1.0, "sushi sashimi seafood"},
      {"Marina", 2.0, 1.5, "seafood grill wine"},
      {"Noodle Bar", 1.5, 2.5, "noodles ramen soup"},
      {"La Pasta", 8.0, 8.0, "pasta pizza wine"},
      {"Golden Wok", 8.5, 7.0, "noodles dumplings soup"},
      {"Ocean Catch", 2.5, 0.5, "seafood sushi oyster"},
      {"Trattoria", 7.0, 8.5, "pizza pasta espresso"},
  };
  for (const Row& r : rows) {
    dataset.Add(Point{r.x, r.y},
                RawDocument::FromTokens(vocab.TokenizeAndAdd(r.menu)));
  }
  dataset.Finalize({Weighting::kTfIdf, 0.1});

  // --- 2. Index it. ---
  const IurTree tree = IurTree::BuildFromDataset(dataset, {});
  std::printf("indexed %zu objects, tree height %zu, %zu nodes, %llu bytes\n\n",
              tree.size(), tree.height(), tree.NodeCount(),
              static_cast<unsigned long long>(tree.IndexBytes()));

  // --- 3. Top-k: the 3 most relevant restaurants for a seafood lover. ---
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {/*alpha=*/0.5, dataset.max_dist()});
  TopKSearcher topk(&tree, &dataset, &scorer);

  const TermVector craving =
      TermVector::FromTerms(vocab.TokenizeAndAdd("seafood sushi"));
  IoStats io;
  const auto best =
      topk.Search({Point{2.0, 1.0}, &craving, 3, IurTree::kNoObject}, &io);
  std::printf("top-3 for 'seafood sushi' near (2,1):\n");
  for (const TopKResult& r : best) {
    std::printf("  %-12s score=%.3f\n", rows[r.id].name, r.score);
  }
  std::printf("  (%llu simulated I/Os)\n\n",
              static_cast<unsigned long long>(io.TotalIos()));

  // --- 4. RSTkNN: who considers "Ocean Catch" one of their 2 most similar
  //         competitors? (the 2011 paper's reverse query, searched on a
  //         frozen flat-layout snapshot of the tree) ---
  const frozen::FrozenTree snapshot = frozen::FrozenTree::Freeze(tree);
  RstknnSearcher rst(&snapshot, &dataset, &scorer);
  const ObjectId ocean_catch = 5;
  const StObject& q = dataset.object(ocean_catch);
  const RstknnResult reverse = rst.Search({q.loc, &q.doc, 2, ocean_catch});
  std::printf("RSTkNN(k=2) of %s — rivals that rank it among their top-2:\n",
              rows[ocean_catch].name);
  for (ObjectId id : reverse.answers) {
    std::printf("  %s\n", rows[id].name);
  }
  std::printf(
      "  (%llu entries examined, %llu pruned, %llu reported, %llu I/Os)\n",
      static_cast<unsigned long long>(reverse.stats.entries_created),
      static_cast<unsigned long long>(reverse.stats.pruned_entries),
      static_cast<unsigned long long>(reverse.stats.reported_entries),
      static_cast<unsigned long long>(reverse.stats.io.TotalIos()));
  return 0;
}
