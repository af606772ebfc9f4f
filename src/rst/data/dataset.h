#ifndef RST_DATA_DATASET_H_
#define RST_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/object_id.h"
#include "rst/text/corpus_stats.h"
#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"
#include "rst/text/weighting.h"

namespace rst {

/// A spatial-textual object: a point location plus a weighted term vector
/// (derived from the raw document under the dataset's weighting scheme).
struct StObject {
  ObjectId id = 0;
  Point loc;
  RawDocument raw;
  TermVector doc;  ///< weighted vector (filled by Dataset::Finalize)
};

/// A user in the bichromatic setting: a point location plus a keyword set
/// (binary term vector). Users issue top-k queries over objects.
struct StUser {
  uint32_t id = 0;
  Point loc;
  TermVector keywords;
};

/// An immutable spatial-textual collection with its corpus statistics,
/// per-term corpus-max weights (the normalizers of the sum-form measures),
/// spatial bounds, and normalizing diameter.
class Dataset {
 public:
  Dataset() = default;

  /// Adds a raw object (document weights are computed in Finalize()).
  void Add(Point loc, RawDocument raw);

  /// Computes corpus stats, weighted vectors, corpus-max weights, spatial
  /// bounds, and the normalizing max distance. Must be called exactly once,
  /// after all Add() calls.
  void Finalize(const WeightingOptions& weighting);

  bool finalized() const { return finalized_; }
  size_t size() const { return objects_.size(); }
  const std::vector<StObject>& objects() const { return objects_; }
  const StObject& object(ObjectId id) const { return objects_[id]; }

  const CorpusStats& stats() const { return stats_; }
  const std::vector<float>& corpus_max() const { return corpus_max_; }
  const WeightingOptions& weighting() const { return weighting_; }
  size_t vocab_size() const { return corpus_max_.size(); }

  Rect bounds() const { return bounds_; }
  /// Diameter of the data space — the d_max normalizer in Equation 2 of both
  /// papers.
  double max_dist() const { return max_dist_; }

 private:
  std::vector<StObject> objects_;
  CorpusStats stats_;
  std::vector<float> corpus_max_;
  WeightingOptions weighting_;
  Rect bounds_;
  double max_dist_ = 1.0;
  bool finalized_ = false;
};

/// Summary statistics printed by the dataset benchmark (the 2016 paper's
/// Table 4: total objects, unique terms, average unique terms per object,
/// total terms).
struct DatasetStatsRow {
  size_t total_objects = 0;
  size_t total_unique_terms = 0;
  double avg_unique_terms_per_object = 0.0;
  uint64_t total_terms = 0;
};
DatasetStatsRow ComputeDatasetStats(const Dataset& dataset);

}  // namespace rst

#endif  // RST_DATA_DATASET_H_
