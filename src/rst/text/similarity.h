#ifndef RST_TEXT_SIMILARITY_H_
#define RST_TEXT_SIMILARITY_H_

#include <vector>

#include "rst/common/geometry.h"
#include "rst/text/term_vector.h"

namespace rst {

/// Intersection/union text summary of a group of documents — the per-node
/// payload of the IUR-tree (equivalently, the (min,max) weights of the 2016
/// paper's MIR-tree posting lists):
///   uni  — per-term maximum weight over all documents in the group;
///   intr — per-term minimum weight (a term absent from any document of the
///          group has implicit weight 0 and is dropped).
/// For a single document, uni == intr == the document vector.
struct TextSummary {
  TermVector uni;
  TermVector intr;
  uint32_t count = 0;  ///< number of documents summarized

  static TextSummary FromDoc(const TermVector& doc) {
    return TextSummary{doc, doc, 1};
  }
  static TextSummary Merge(const TextSummary& a, const TextSummary& b) {
    if (a.count == 0) return b;
    if (b.count == 0) return a;
    return TextSummary{TermVector::UnionMax(a.uni, b.uni),
                       TermVector::IntersectMin(a.intr, b.intr),
                       a.count + b.count};
  }
};

/// Non-owning view of one sorted term-weight run together with its cached
/// squared norm — the summary currency of the frozen flat-layout index
/// (rst::frozen), whose term weights live in shared contiguous pools instead
/// of per-node TermVector allocations. AsSpan() adapts a TermVector in O(1),
/// so IurTree and frozen-snapshot code feed the exact same span kernels.
struct TermSpan {
  const TermWeight* data = nullptr;
  uint32_t len = 0;
  double norm_squared = 0.0;

  float Get(TermId term) const { return GetSpan(data, len, term); }
  bool Contains(TermId term) const { return ContainsSpan(data, len, term); }
};

inline TermSpan AsSpan(const TermVector& v) {
  return TermSpan{v.entries().data(), static_cast<uint32_t>(v.size()),
                  v.NormSquared()};
}

inline double Dot(const TermSpan& a, const TermSpan& b) {
  return DotSpan(a.data, a.len, b.data, b.len);
}

/// Span view of a TextSummary (or of a frozen entry's summary slices).
struct SummarySpan {
  TermSpan uni;
  TermSpan intr;
  uint32_t count = 0;
};

inline SummarySpan AsSpan(const TextSummary& s) {
  return SummarySpan{AsSpan(s.uni), AsSpan(s.intr), s.count};
}

/// Text relevance measures.
///
///  * kExtendedJaccard — EJ(u,v) = <u,v> / (|u|² + |v|² − <u,v>); the 2011
///    RSTkNN paper's measure. Symmetric, both sides weighted vectors.
///  * kCosine — <u,v> / (|u||v|). Symmetric.
///  * kSum — Σ_{t∈u.d} w(t, o.d) / Σ_{t∈u.d} cmax(t): the normalized
///    sum-form used by the 2016 paper for LM (Eq. 4), TF-IDF, and keyword
///    overlap; which of the three it realizes is determined by how the
///    *object* vectors were weighted (LM / tf·idf / binary). Asymmetric: the
///    second argument is a user whose terms act as a keyword set (its weights
///    are ignored); cmax(t) is the corpus-wide maximum object weight of t, so
///    scores are normalized to [0,1] per user (P_max in the 2016 paper).
enum class TextMeasure {
  kExtendedJaccard,
  kCosine,
  kSum,
};

const char* TextMeasureName(TextMeasure m);

/// How aggressively the extended-Jaccard upper bound is tightened.
/// kCauchySchwarz (default) additionally exploits x <= sqrt(a*b), which keeps
/// the bound far below 1 on nodes with empty intersection vectors — without
/// it, node-level pruning in the RSTkNN search rarely fires (the ablation
/// bench `fig_core_ablation_bounds` quantifies the difference).
enum class EjBoundMode {
  kNaive,          ///< den >= |intr1|^2 + |intr2|^2 - X only
  kCauchySchwarz,  ///< + the x <= sqrt(ab) leg (DESIGN.md §3.1)
};

/// Exact similarities and node-level bounds for one measure.
///
/// The bound contract — the foundation of every pruning rule in the library,
/// enforced by property tests:
///   for all documents d1 in group A and d2 in group B:
///     MinSim(A, B) <= Sim(d1, d2) <= MaxSim(A, B).
/// For kSum, "d2 in group B" means: any user keyword set u with
/// B.intr ⊆ u ⊆ B.uni (the summaries of a user-tree node).
class TextSimilarity {
 public:
  /// `corpus_max` must outlive this object and is required for kSum (per-term
  /// normalizers); ignored by the symmetric measures.
  explicit TextSimilarity(TextMeasure measure,
                          const std::vector<float>* corpus_max = nullptr,
                          EjBoundMode ej_bound = EjBoundMode::kCauchySchwarz);

  TextMeasure measure() const { return measure_; }

  /// Exact similarity between an object document and a user document /
  /// keyword set (symmetric for EJ/cosine).
  double Sim(const TermVector& object, const TermVector& user) const;

  /// Upper bound over all (object doc, user doc) pairs drawn from A and B.
  /// The span overload is the single implementation; the TextSummary form
  /// adapts and forwards, so IurTree and frozen-snapshot bounds are
  /// bit-identical.
  double MaxSim(const SummarySpan& object, const SummarySpan& user) const;
  double MaxSim(const TextSummary& object, const TextSummary& user) const {
    return MaxSim(AsSpan(object), AsSpan(user));
  }

  /// Lower bound over all (object doc, user doc) pairs drawn from A and B.
  double MinSim(const SummarySpan& object, const SummarySpan& user) const;
  double MinSim(const TextSummary& object, const TextSummary& user) const {
    return MinSim(AsSpan(object), AsSpan(user));
  }

 private:
  double CorpusMax(TermId t) const {
    return (corpus_max_ && t < corpus_max_->size()) ? (*corpus_max_)[t] : 0.0;
  }

  double SumSim(const TermVector& object, const TermVector& user) const;
  double SumBound(const SummarySpan& object, const SummarySpan& user,
                  bool upper) const;

  TextMeasure measure_;
  const std::vector<float>* corpus_max_;
  EjBoundMode ej_bound_;
};

/// Combined spatial-textual scoring:
///   SimST(o, u) = alpha * (1 − dist(o,u)/max_dist) + (1 − alpha) * SimT.
struct StOptions {
  double alpha = 0.5;
  /// Normalizing distance (diameter of the data space). Distances beyond it
  /// clamp spatial similarity at 0.
  double max_dist = 1.0;
};

class StScorer {
 public:
  /// `text` must outlive the scorer.
  StScorer(const TextSimilarity* text, const StOptions& options)
      : text_(text), options_(options) {}

  const StOptions& options() const { return options_; }
  const TextSimilarity& text() const { return *text_; }

  /// Spatial similarity of a raw distance, clamped to [0, 1].
  double SpatialSim(double dist) const;

  /// Exact combined score between two located documents.
  double Score(const Point& op, const TermVector& od, const Point& up,
               const TermVector& ud) const;

  /// Upper/lower combined-score bounds between two summarized groups with
  /// bounding rectangles. For point entries pass a degenerate Rect. The span
  /// overloads are what the frozen view calls; the TextSummary forms adapt
  /// and forward.
  double MaxScore(const Rect& orect, const SummarySpan& osum, const Rect& urect,
                  const SummarySpan& usum) const;
  double MinScore(const Rect& orect, const SummarySpan& osum, const Rect& urect,
                  const SummarySpan& usum) const;
  double MaxScore(const Rect& orect, const TextSummary& osum, const Rect& urect,
                  const TextSummary& usum) const {
    return MaxScore(orect, AsSpan(osum), urect, AsSpan(usum));
  }
  double MinScore(const Rect& orect, const TextSummary& osum, const Rect& urect,
                  const TextSummary& usum) const {
    return MinScore(orect, AsSpan(osum), urect, AsSpan(usum));
  }

 private:
  const TextSimilarity* text_;
  StOptions options_;
};

}  // namespace rst

#endif  // RST_TEXT_SIMILARITY_H_
