#ifndef RST_TEXT_SIMILARITY_H_
#define RST_TEXT_SIMILARITY_H_

#include <vector>

#include "rst/common/check.h"
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

/// A user-side summary prepared once for many bound calls against different
/// object summaries: a super-user over a whole joint top-k traversal, a
/// query over its top-k search. For kSum it holds the user-union terms
/// ascending, each term's cmax and whether it is required (in `intr`), plus
/// the required terms' Σcmax, so that a bound call walks the object side
/// once instead of looking every user term up (DESIGN.md §3.1). EJ and
/// cosine precompute nothing; their prepared form is the span itself.
///
/// Build with TextSimilarity::Prepare. The summary the span points into must
/// outlive it. Bound calls on sides of more than kInlineTerms terms reuse a
/// scratch buffer held here, so one PreparedSummary serves one thread at a
/// time.
class PreparedSummary {
  friend class TextSimilarity;

  /// One user-union term.
  struct Key {
    TermId term;
    bool required;  ///< the term is in `intr`
    double cmax;
    friend TermId TermOf(const Key& k) { return k.term; }
  };
  /// One user term gathered for a kSum bound.
  struct RatioTerm {
    double num;  ///< object-side weight bound for the term
    double den;  ///< corpus normalizer cmax(t) > 0
    TermId term;
  };
  /// Sides up to this many terms gather on the stack; larger ones use
  /// `scratch_`.
  static constexpr size_t kInlineTerms = 32;

  double SumBound(const TermSpan& object_side, bool upper) const;

  SummarySpan span_;
  std::vector<Key> keys_;      ///< kSum: user-union terms, ascending
  double required_den_ = 0.0;  ///< Σ cmax over required terms, in order
  uint32_t num_required_ = 0;
  uint32_t num_optional_ = 0;  ///< optional terms with cmax > 0
  bool zero_cmax_optional_ = false;
  mutable std::vector<RatioTerm> scratch_;
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

  /// Sim split into its parts, for callers that gather the object side
  /// themselves (joint top-k's candidate rows): `cross` is Σ over the user's
  /// terms, in ascending term order, of object weight × user weight (for
  /// kSum the user weight is taken as 1); `object_norm` is |o|² (unused by
  /// kSum); `user_norm` is UserNorm(user). Sim(o, u) ==
  /// SimFromParts(cross, |o|², UserNorm(u)) bit-for-bit.
  double SimFromParts(double cross, double object_norm,
                      double user_norm) const;
  /// |u|² for EJ/cosine; Σ cmax over the user's terms for kSum.
  double UserNorm(const TermVector& user) const;

  /// The prepared form of a user-side summary for repeated bound calls.
  PreparedSummary Prepare(const SummarySpan& user) const;

  /// Upper bound over all (object doc, user doc) pairs drawn from A and B.
  /// The prepared overload is the single kSum implementation: the one-shot
  /// span form prepares and forwards, and the TextSummary forms adapt to
  /// spans, so IurTree and frozen-snapshot bounds are bit-identical.
  double MaxSim(const SummarySpan& object, const PreparedSummary& user) const;
  double MaxSim(const SummarySpan& object, const SummarySpan& user) const;
  double MaxSim(const TextSummary& object, const TextSummary& user) const {
    return MaxSim(AsSpan(object), AsSpan(user));
  }

  /// Lower bound over all (object doc, user doc) pairs drawn from A and B.
  double MinSim(const SummarySpan& object, const PreparedSummary& user) const;
  double MinSim(const SummarySpan& object, const SummarySpan& user) const;
  double MinSim(const TextSummary& object, const TextSummary& user) const {
    return MinSim(AsSpan(object), AsSpan(user));
  }

 private:
  double CorpusMax(TermId t) const {
    return (corpus_max_ && t < corpus_max_->size()) ? (*corpus_max_)[t] : 0.0;
  }

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
  /// `text` must outlive the scorer. `options.alpha` must lie in [0, 1]
  /// (NaN fails too): every score bound pairs the weight 1 − α with a
  /// MaxSim and α with a spatial maximum, so outside it they stop bounding.
  StScorer(const TextSimilarity* text, const StOptions& options)
      : text_(text), options_(options) {
    RST_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0)
        << "StScorer: alpha " << options.alpha << " is outside [0, 1]";
  }

  const StOptions& options() const { return options_; }
  const TextSimilarity& text() const { return *text_; }

  /// Spatial similarity of a raw distance, clamped to [0, 1].
  double SpatialSim(double dist) const;

  /// Exact combined score between two located documents.
  double Score(const Point& op, const TermVector& od, const Point& up,
               const TermVector& ud) const {
    return Combine(Distance(op, up), text_->Sim(od, ud));
  }

  /// Score's blend of a raw distance and a text similarity, for callers
  /// that compute the text part themselves.
  double Combine(double dist, double text_sim) const {
    return options_.alpha * SpatialSim(dist) +
           (1.0 - options_.alpha) * text_sim;
  }

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
