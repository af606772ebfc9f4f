#include "rst/text/similarity.h"

#include "rst/common/check.h"

#include <algorithm>
#include <cmath>

namespace rst {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

/// Extended Jaccard from <a,b> and the two squared norms.
double ExtendedJaccard(double dot, double na, double nb) {
  const double den = na + nb - dot;
  if (den <= 0.0) return 0.0;  // both vectors empty
  return dot / den;
}

double Cosine(double dot, double na, double nb) {
  if (dot <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

/// kSum from Σ object weight and Σ cmax over the user's keywords.
double NormalizedSum(double num, double den) {
  if (den <= 0.0) return 0.0;
  return Clamp01(num / den);
}

/// Upper bound of EJ(d1, d2) = x/(a+b−x) over all d1 in group A, d2 in
/// group B, where x = <d1,d2> ≤ X := <A.uni, B.uni>, a = |d1|² ≥ A :=
/// |A.intr|², b ≥ B := |B.intr|², and (Cauchy–Schwarz on non-negative
/// vectors) x ≤ √(ab). For fixed x the denominator is minimized by the
/// smallest feasible a+b: A+B when A·B ≥ x², otherwise on the curve ab = x²
/// at a* = clamp(x, A, x²/B), giving a* + x²/a* − x. The resulting bound
/// x/den(x) is increasing in x, so evaluating at x = X is the maximum. The
/// Cauchy–Schwarz leg keeps the bound far below 1 even when intersection
/// vectors are empty — without it, node-level pruning in the RSTkNN
/// branch-and-bound never fires (DESIGN.md §3.1).
double ExtendedJaccardMax(const SummarySpan& a, const SummarySpan& b,
                          EjBoundMode mode) {
  const double x = Dot(a.uni, b.uni);
  if (x <= 0.0) return 0.0;  // no shared term anywhere in the two groups
  const double na = a.intr.norm_squared;
  const double nb = b.intr.norm_squared;
  double den;
  if (na * nb >= x * x) {
    den = na + nb - x;  // A+B ≥ 2√(AB) ≥ 2x, so den ≥ x > 0
  } else if (mode == EjBoundMode::kNaive) {
    den = na + nb - x;  // may be ≤ 0: collapses to the trivial bound 1
  } else {
    double a_star = x;  // unconstrained minimizer of a + x²/a
    if (a_star < na) a_star = na;
    if (nb > 0.0 && a_star > x * x / nb) a_star = x * x / nb;
    den = a_star + x * x / a_star - x;
  }
  if (den <= 0.0) return 1.0;
  return Clamp01(x / den);
}

double ExtendedJaccardMin(const SummarySpan& a, const SummarySpan& b) {
  const double x = Dot(a.intr, b.intr);
  if (x <= 0.0) return 0.0;
  const double den = a.uni.norm_squared + b.uni.norm_squared - x;
  if (den <= 0.0) return 1.0;  // unreachable with x <= den by Cauchy–Schwarz
  return Clamp01(x / den);
}

double CosineMax(const SummarySpan& a, const SummarySpan& b) {
  const double x = Dot(a.uni, b.uni);
  if (x <= 0.0) return 0.0;
  const double n2 = a.intr.norm_squared * b.intr.norm_squared;
  if (n2 <= 0.0) return 1.0;  // some doc may be ~parallel; cannot tighten
  return Clamp01(x / std::sqrt(n2));
}

double CosineMin(const SummarySpan& a, const SummarySpan& b) {
  const double x = Dot(a.intr, b.intr);
  if (x <= 0.0) return 0.0;
  const double n2 = a.uni.norm_squared * b.uni.norm_squared;
  RST_DCHECK_GT(n2, 0.0);
  return Clamp01(x / std::sqrt(n2));
}

}  // namespace

const char* TextMeasureName(TextMeasure m) {
  switch (m) {
    case TextMeasure::kExtendedJaccard:
      return "extended_jaccard";
    case TextMeasure::kCosine:
      return "cosine";
    case TextMeasure::kSum:
      return "normalized_sum";
  }
  return "unknown";
}

TextSimilarity::TextSimilarity(TextMeasure measure,
                               const std::vector<float>* corpus_max,
                               EjBoundMode ej_bound)
    : measure_(measure), corpus_max_(corpus_max), ej_bound_(ej_bound) {
  RST_CHECK(measure_ != TextMeasure::kSum || corpus_max_ != nullptr)
      << "kSum needs per-term corpus maxima";
}

double TextSimilarity::UserNorm(const TermVector& user) const {
  if (measure_ != TextMeasure::kSum) return user.NormSquared();
  double den = 0.0;
  for (const TermWeight& e : user.entries()) den += CorpusMax(e.term);
  return den;
}

double TextSimilarity::SimFromParts(double cross, double object_norm,
                                    double user_norm) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccard(cross, object_norm, user_norm);
    case TextMeasure::kCosine:
      return Cosine(cross, object_norm, user_norm);
    case TextMeasure::kSum:
      return NormalizedSum(cross, user_norm);
  }
  return 0.0;
}

double TextSimilarity::Sim(const TermVector& object,
                           const TermVector& user) const {
  if (measure_ != TextMeasure::kSum) {
    return SimFromParts(object.Dot(user), object.NormSquared(),
                        user.NormSquared());
  }
  double num = 0.0;
  for (const TermWeight& e : user.entries()) num += object.Get(e.term);
  return NormalizedSum(num, UserNorm(user));
}

PreparedSummary TextSimilarity::Prepare(const SummarySpan& user) const {
  PreparedSummary p;
  p.span_ = user;
  if (measure_ != TextMeasure::kSum) return p;
  const size_t n = user.uni.len;
  p.keys_.reserve(n);
  if (n > PreparedSummary::kInlineTerms) p.scratch_.resize(n);
  const TermWeight* intr = user.intr.data;
  const TermWeight* const intr_end = intr + user.intr.len;
  for (const TermWeight* e = user.uni.data; e != user.uni.data + n; ++e) {
    while (intr != intr_end && intr->term < e->term) ++intr;
    const bool required =
        intr != intr_end && intr->term == e->term && intr->weight > 0.0f;
    const double cmax = CorpusMax(e->term);
    p.keys_.push_back({e->term, required, cmax});
    if (required) {
      ++p.num_required_;
      p.required_den_ += cmax;
    } else if (cmax > 0.0) {
      ++p.num_optional_;
    } else {
      p.zero_cmax_optional_ = true;
    }
  }
  return p;
}

/// Extremal value of (Σ num) / (Σ den) over keyword sets that must contain
/// all required terms and may add any subset of the optional ones. This is
/// the exact subset-extremal normalized-sum bound (DESIGN.md §3.1): sort the
/// optional terms by num/den and greedily add while the ratio improves
/// (`upper`) or worsens (!`upper`). With no required cmax mass the extremum
/// over non-empty sets starts from the single best/worst-ratio term.
///
/// Only terms that can change the result are gathered. Zero-cmax terms add
/// nothing to either sum, except that an object weight on one makes the
/// ratio unbounded (upper bound 1, and a required one makes the lower bound
/// 0), and that with no required terms a user holding only such keywords
/// scores 0. In the upper bound an optional term the object lacks has ratio
/// 0 and never improves the sum, so it is skipped. In the lower bound with
/// no required terms, one missing optional term starts the greedy at ratio 0
/// and nothing can lower it: the bound is exactly 0, and when there are
/// more optional terms than the object's `intr` holds, a length check finds
/// that without walking.
double PreparedSummary::SumBound(const TermSpan& obj, bool upper) const {
  RatioTerm inline_terms[kInlineTerms];
  RatioTerm* const optional =
      keys_.size() <= kInlineTerms ? inline_terms : scratch_.data();
  size_t n = 0;
  double num = 0.0;
  double den = required_den_;
  if (upper) {
    bool saturated = false;
    ForEachKeyWeight(obj.data, obj.len, keys_.data(), keys_.size(),
                     [&](size_t i, float w) {
                       const Key& k = keys_[i];
                       if (w <= 0.0f) return;
                       if (k.cmax <= 0.0) {
                         saturated = true;
                       } else if (k.required) {
                         num += w;
                       } else {
                         optional[n++] = {w, k.cmax, k.term};
                       }
                     });
    if (saturated) return 1.0;
  } else if (num_required_ == 0) {
    if (zero_cmax_optional_ || num_optional_ == 0 ||
        num_optional_ > obj.len) {
      return 0.0;
    }
    ForEachKeyWeight(obj.data, obj.len, keys_.data(), keys_.size(),
                     [&](size_t i, float w) {
                       const Key& k = keys_[i];
                       if (w > 0.0f) optional[n++] = {w, k.cmax, k.term};
                     });
    if (n < num_optional_) return 0.0;
  } else {
    if (required_den_ <= 0.0) return 0.0;  // the required-only user scores 0
    // Every optional term counts here, the ones the object lacks included
    // (ratio 0), so classify all terms in order, absent ones with weight 0.
    bool saturated = false;
    size_t next = 0;
    auto classify = [&](size_t i, float w) {
      const Key& k = keys_[i];
      if (k.required) {
        if (k.cmax <= 0.0 && w > 0.0f) saturated = true;
        num += w;
      } else if (k.cmax > 0.0) {
        optional[n++] = {w, k.cmax, k.term};
      }
    };
    ForEachKeyWeight(obj.data, obj.len, keys_.data(), keys_.size(),
                     [&](size_t i, float w) {
                       for (; next < i; ++next) classify(next, 0.0f);
                       classify(i, w);
                       next = i + 1;
                     });
    for (; next < keys_.size(); ++next) classify(next, 0.0f);
    if (saturated) return 0.0;
  }
  // By num/den, descending for an upper bound and ascending for a lower
  // one, ties by term id. Every den is > 0 and each product is of two floats
  // widened to double, so the comparison is exact and this is a strict total
  // order: any subsequence of the terms sorts the same way as the full list.
  std::sort(optional, optional + n,
            [upper](const RatioTerm& a, const RatioTerm& b) {
              const double lhs = a.num * b.den;
              const double rhs = b.num * a.den;
              if (lhs != rhs) return upper ? lhs > rhs : lhs < rhs;
              return a.term < b.term;
            });
  size_t start = 0;
  if (num_required_ == 0 || den <= 0.0) {
    if (n == 0) return 0.0;
    num = optional[0].num;
    den = optional[0].den;
    start = 1;
  }
  for (size_t i = start; i < n; ++i) {
    const RatioTerm& t = optional[i];
    const bool improves =
        upper ? t.num * den > num * t.den : t.num * den < num * t.den;
    if (!improves) break;  // sorted: no later term can improve either
    num += t.num;
    den += t.den;
  }
  return Clamp01(num / den);
}

double TextSimilarity::MaxSim(const SummarySpan& object,
                              const PreparedSummary& user) const {
  if (measure_ != TextMeasure::kSum) return MaxSim(object, user.span_);
  return user.SumBound(object.uni, /*upper=*/true);
}

double TextSimilarity::MinSim(const SummarySpan& object,
                              const PreparedSummary& user) const {
  if (measure_ != TextMeasure::kSum) return MinSim(object, user.span_);
  return user.SumBound(object.intr, /*upper=*/false);
}

double TextSimilarity::MaxSim(const SummarySpan& object,
                              const SummarySpan& user) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccardMax(object, user, ej_bound_);
    case TextMeasure::kCosine:
      return CosineMax(object, user);
    case TextMeasure::kSum:
      return MaxSim(object, Prepare(user));
  }
  return 1.0;
}

double TextSimilarity::MinSim(const SummarySpan& object,
                              const SummarySpan& user) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccardMin(object, user);
    case TextMeasure::kCosine:
      return CosineMin(object, user);
    case TextMeasure::kSum:
      return MinSim(object, Prepare(user));
  }
  return 0.0;
}

double StScorer::SpatialSim(double dist) const {
  if (options_.max_dist <= 0.0) return dist <= 0.0 ? 1.0 : 0.0;
  return Clamp01(1.0 - dist / options_.max_dist);
}

double StScorer::MaxScore(const Rect& orect, const SummarySpan& osum,
                          const Rect& urect, const SummarySpan& usum) const {
  return options_.alpha * SpatialSim(MinDistance(orect, urect)) +
         (1.0 - options_.alpha) * text_->MaxSim(osum, usum);
}

double StScorer::MinScore(const Rect& orect, const SummarySpan& osum,
                          const Rect& urect, const SummarySpan& usum) const {
  return options_.alpha * SpatialSim(MaxDistance(orect, urect)) +
         (1.0 - options_.alpha) * text_->MinSim(osum, usum);
}

}  // namespace rst
