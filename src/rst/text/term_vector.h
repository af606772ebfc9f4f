#ifndef RST_TEXT_TERM_VECTOR_H_
#define RST_TEXT_TERM_VECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rst {

/// Integer term identifier assigned by a Vocabulary.
using TermId = uint32_t;

struct TermWeight {
  TermId term = 0;
  float weight = 0.0f;

  friend bool operator==(const TermWeight& a, const TermWeight& b) {
    return a.term == b.term && a.weight == b.weight;
  }
};

/// A sparse, weighted term vector: entries sorted by term id, unique terms,
/// non-negative weights. This is the representation of both object documents
/// and the intersection/union summaries stored in IUR-/MIR-tree nodes.
///
/// All binary operations (dot product, union-max, intersect-min, restrict)
/// merge the sorted entry lists. The merges are adaptive: balanced inputs
/// take the linear two-pointer walk (O(|a| + |b|)); when one side is much
/// shorter the kernel gallops (exponential + binary search) through the long
/// side instead, costing O(|small| · log |large|) — the common shape when a
/// leaf document meets a root-level union summary.
class TermVector {
 public:
  TermVector() = default;

  /// Builds from possibly unsorted/duplicated entries; duplicate terms keep
  /// the maximum weight. Entries with weight <= 0 are dropped.
  static TermVector FromUnsorted(std::vector<TermWeight> entries);

  /// Builds from entries already sorted by unique term id (checked in debug).
  static TermVector FromSorted(std::vector<TermWeight> entries);

  /// Binary vector (weight 1.0) over a set of terms.
  static TermVector FromTerms(const std::vector<TermId>& terms);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<TermWeight>& entries() const { return entries_; }

  /// Weight of `term`, or 0 if absent. O(log n).
  float Get(TermId term) const;
  bool Contains(TermId term) const;

  /// <a, b> over shared terms.
  double Dot(const TermVector& other) const;

  /// Sum of squared weights, cached at construction.
  double NormSquared() const { return norm_squared_; }

  /// Sum of weights.
  double WeightSum() const { return weight_sum_; }

  /// Number of terms present in both vectors.
  size_t OverlapCount(const TermVector& other) const;

  /// Per-term maximum of the two vectors over the union of their terms.
  static TermVector UnionMax(const TermVector& a, const TermVector& b);

  /// Per-term minimum over the *intersection* of their terms (a term missing
  /// from either side has implicit weight 0 and is dropped).
  static TermVector IntersectMin(const TermVector& a, const TermVector& b);

  /// This vector restricted to terms present in `filter`.
  TermVector Restrict(const TermVector& filter) const;

  /// The `k` terms of this vector with the largest weights (ties broken by
  /// smaller term id), returned as a TermVector.
  TermVector TopKByWeight(size_t k) const;

  std::string ToString() const;

  friend bool operator==(const TermVector& a, const TermVector& b) {
    return a.entries_ == b.entries_;
  }

 private:
  void RecomputeCaches();

  std::vector<TermWeight> entries_;
  double norm_squared_ = 0.0;
  double weight_sum_ = 0.0;
};

/// Span kernels: non-owning variants of the read-only merge kernels over raw
/// sorted runs (term ids ascending, unique, weights >= 0). TermVector
/// delegates to these, and the frozen flat-layout index (rst::frozen) calls
/// them directly on its shared term-weight pools — both paths execute the
/// exact same adaptive galloping code, so every similarity/bound double is
/// bit-identical between an IurTree's summaries and its frozen snapshot.
double DotSpan(const TermWeight* a, size_t a_len, const TermWeight* b,
               size_t b_len);
size_t OverlapCountSpan(const TermWeight* a, size_t a_len, const TermWeight* b,
                        size_t b_len);

/// Weight of `term` in a sorted span, 0 if absent. O(log n).
float GetSpan(const TermWeight* a, size_t a_len, TermId term);
bool ContainsSpan(const TermWeight* a, size_t a_len, TermId term);

/// Sum of squared weights accumulated in entry order — the same addition
/// sequence as the TermVector construction cache, so the result matches
/// TermVector::NormSquared() bit-for-bit.
double NormSquaredSpan(const TermWeight* a, size_t a_len);

}  // namespace rst

#endif  // RST_TEXT_TERM_VECTOR_H_
