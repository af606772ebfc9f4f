// Competitive-influence analysis with RSTkNN (the 2011 paper's motivating
// scenario): given a city-scale collection of venues, measure how a new
// venue's location and menu determine its *reverse* reach — the set of
// existing venues that would rank it among their top-k most similar
// competitors. Compares a few placement strategies.
//
//   $ ./restaurant_influence

#include <cstdio>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"
#include "rst/rstknn/rstknn.h"

using namespace rst;

int main() {
  // A GeoNames-like city: mildly clustered venues with short descriptions.
  GeoNamesLikeConfig config;
  config.num_objects = 8000;
  config.vocab_size = 1200;
  Dataset city = GenGeoNamesLike(config, {Weighting::kTfIdf, 0.1});

  // Cluster the venue vocabulary so the index is a CIUR-tree (tighter text
  // bounds; see DESIGN.md §3.3).
  std::vector<TermVector> docs;
  for (const StObject& o : city.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 10;
  copts.outlier_threshold = 0.15;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  // RSTkNN searches a frozen snapshot; the builder is not needed afterwards.
  const frozen::FrozenTree index = frozen::FrozenTree::Freeze(
      IurTree::BuildFromDataset(city, {}, &clusters.assignment));
  std::printf("city: %zu venues, %u text clusters (%u outliers)\n\n",
              city.size(), clusters.num_clusters, clusters.num_outliers);

  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {/*alpha=*/0.4, city.max_dist()});
  RstknnSearcher searcher(&index, &city, &scorer);

  // Candidate strategies for the new venue: copy a popular venue's text at
  // different locations vs. a niche description.
  const StObject& donor = city.object(42);
  const TermVector niche = donor.doc.TopKByWeight(2);

  struct Strategy {
    const char* label;
    Point loc;
    const TermVector* doc;
  };
  const Point center = city.bounds().Center();
  const Point edge{city.bounds().min_x + 1.0, city.bounds().min_y + 1.0};
  const Strategy strategies[] = {
      {"popular text @ center", center, &donor.doc},
      {"popular text @ edge", edge, &donor.doc},
      {"niche text   @ center", center, &niche},
      {"niche text   @ edge", edge, &niche},
  };

  std::printf("%-24s %10s %10s %12s %10s\n", "strategy", "k=5", "k=20",
              "entries", "sim-I/Os");
  for (const Strategy& s : strategies) {
    const RstknnResult r5 =
        searcher.Search({s.loc, s.doc, 5, IurTree::kNoObject});
    const RstknnResult r20 =
        searcher.Search({s.loc, s.doc, 20, IurTree::kNoObject});
    std::printf("%-24s %10zu %10zu %12llu %10llu\n", s.label,
                r5.answers.size(), r20.answers.size(),
                static_cast<unsigned long long>(r20.stats.entries_created),
                static_cast<unsigned long long>(r20.stats.io.TotalIos()));
  }
  std::printf(
      "\nReading: 'k=5' counts venues that would rank the newcomer among\n"
      "their five most spatial-textually similar competitors.\n");
  return 0;
}
