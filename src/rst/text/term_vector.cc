#include "rst/text/term_vector.h"

#include "rst/common/check.h"
#include "rst/simd/simd.h"

#include <algorithm>
#include <cstdio>

namespace rst {

namespace {

using span_internal::GallopLowerBound;
using span_internal::Skewed;

double DotGalloped(const TermWeight* small, size_t small_len,
                   const TermWeight* large, size_t large_len) {
  double dot = 0.0;
  const TermWeight* cur = large;
  const TermWeight* end = large + large_len;
  for (const TermWeight* e = small; e != small + small_len; ++e) {
    cur = GallopLowerBound(cur, end, e->term);
    if (cur == end) break;
    if (cur->term == e->term) {
      dot += static_cast<double>(e->weight) * cur->weight;
      ++cur;
    }
  }
  return dot;
}

size_t OverlapGalloped(const TermWeight* small, size_t small_len,
                       const TermWeight* large, size_t large_len) {
  size_t overlap = 0;
  const TermWeight* cur = large;
  const TermWeight* end = large + large_len;
  for (const TermWeight* e = small; e != small + small_len; ++e) {
    cur = GallopLowerBound(cur, end, e->term);
    if (cur == end) break;
    if (cur->term == e->term) {
      ++overlap;
      ++cur;
    }
  }
  return overlap;
}

}  // namespace

double DotSpan(const TermWeight* a, size_t a_len, const TermWeight* b,
               size_t b_len) {
  if (Skewed(a_len, b_len)) return DotGalloped(a, a_len, b, b_len);
  if (Skewed(b_len, a_len)) return DotGalloped(b, b_len, a, a_len);
  // Balanced inputs dispatch to the active SIMD level (scalar fallback).
  // Every level produces bit-identical doubles — see rst/simd/simd.h — so
  // this choice never shows up in answers, stats, or EXPLAIN output.
  return simd::Active().dot(a, a_len, b, b_len);
}

size_t OverlapCountSpan(const TermWeight* a, size_t a_len, const TermWeight* b,
                        size_t b_len) {
  if (Skewed(a_len, b_len)) return OverlapGalloped(a, a_len, b, b_len);
  if (Skewed(b_len, a_len)) return OverlapGalloped(b, b_len, a, a_len);
  return simd::Active().overlap(a, a_len, b, b_len);
}

float GetSpan(const TermWeight* a, size_t a_len, TermId term) {
  const TermWeight* it = std::lower_bound(
      a, a + a_len, term,
      [](const TermWeight& e, TermId t) { return e.term < t; });
  if (it == a + a_len || it->term != term) return 0.0f;
  return it->weight;
}

bool ContainsSpan(const TermWeight* a, size_t a_len, TermId term) {
  return GetSpan(a, a_len, term) > 0.0f;
}

double NormSquaredSpan(const TermWeight* a, size_t a_len) {
  double norm_squared = 0.0;
  for (const TermWeight* e = a; e != a + a_len; ++e) {
    norm_squared += static_cast<double>(e->weight) * e->weight;
  }
  return norm_squared;
}

TermVector TermVector::FromUnsorted(std::vector<TermWeight> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const TermWeight& a, const TermWeight& b) {
              return a.term < b.term || (a.term == b.term && a.weight > b.weight);
            });
  std::vector<TermWeight> out;
  out.reserve(entries.size());
  for (const TermWeight& e : entries) {
    if (e.weight <= 0.0f) continue;
    if (!out.empty() && out.back().term == e.term) continue;  // keep max
    out.push_back(e);
  }
  return FromSorted(std::move(out));
}

TermVector TermVector::FromSorted(std::vector<TermWeight> entries) {
#ifndef NDEBUG
  for (size_t i = 1; i < entries.size(); ++i) {
    RST_DCHECK_LT(entries[i - 1].term, entries[i].term)
        << "TermVector entries must be strictly sorted by term";
  }
  for (const TermWeight& e : entries) RST_DCHECK_GE(e.weight, 0.0f);
#endif
  TermVector v;
  v.entries_ = std::move(entries);
  v.RecomputeCaches();
  return v;
}

TermVector TermVector::FromTerms(const std::vector<TermId>& terms) {
  std::vector<TermWeight> entries;
  entries.reserve(terms.size());
  for (TermId t : terms) entries.push_back({t, 1.0f});
  return FromUnsorted(std::move(entries));
}

void TermVector::RecomputeCaches() {
  norm_squared_ = 0.0;
  weight_sum_ = 0.0;
  for (const TermWeight& e : entries_) {
    norm_squared_ += static_cast<double>(e.weight) * e.weight;
    weight_sum_ += e.weight;
  }
}

float TermVector::Get(TermId term) const {
  return GetSpan(entries_.data(), entries_.size(), term);
}

bool TermVector::Contains(TermId term) const { return Get(term) > 0.0f; }

double TermVector::Dot(const TermVector& other) const {
  return DotSpan(entries_.data(), entries_.size(), other.entries_.data(),
                 other.entries_.size());
}

size_t TermVector::OverlapCount(const TermVector& other) const {
  return OverlapCountSpan(entries_.data(), entries_.size(),
                          other.entries_.data(), other.entries_.size());
}

namespace {

/// Skewed union: walk the small side and bulk-copy the runs of the large
/// side between its terms — the runs are trivially-copyable memmoves instead
/// of per-element compare/branch steps.
TermVector UnionMaxSkewed(const std::vector<TermWeight>& small,
                          const std::vector<TermWeight>& large) {
  std::vector<TermWeight> out;
  out.reserve(small.size() + large.size());
  const TermWeight* cur = large.data();
  const TermWeight* end = large.data() + large.size();
  for (const TermWeight& e : small) {
    const TermWeight* pos = GallopLowerBound(cur, end, e.term);
    out.insert(out.end(), cur, pos);
    if (pos != end && pos->term == e.term) {
      out.push_back({e.term, std::max(e.weight, pos->weight)});
      cur = pos + 1;
    } else {
      out.push_back(e);
      cur = pos;
    }
  }
  out.insert(out.end(), cur, end);
  return TermVector::FromSorted(std::move(out));
}

}  // namespace

TermVector TermVector::UnionMax(const TermVector& a, const TermVector& b) {
  if (Skewed(a.size(), b.size())) return UnionMaxSkewed(a.entries_, b.entries_);
  if (Skewed(b.size(), a.size())) return UnionMaxSkewed(b.entries_, a.entries_);
  std::vector<TermWeight> out(a.size() + b.size());
  const size_t n = simd::Active().union_max(a.entries_.data(), a.size(),
                                            b.entries_.data(), b.size(),
                                            out.data());
  out.resize(n);
  return FromSorted(std::move(out));
}

namespace {

/// Skewed intersection: the result can hold at most |small| terms, so walk
/// the small side and gallop in the large one.
TermVector IntersectMinGalloped(const std::vector<TermWeight>& small,
                                const std::vector<TermWeight>& large) {
  std::vector<TermWeight> out;
  out.reserve(small.size());
  const TermWeight* cur = large.data();
  const TermWeight* end = large.data() + large.size();
  for (const TermWeight& e : small) {
    cur = GallopLowerBound(cur, end, e.term);
    if (cur == end) break;
    if (cur->term == e.term) {
      const float w = std::min(e.weight, cur->weight);
      if (w > 0.0f) out.push_back({e.term, w});
      ++cur;
    }
  }
  return TermVector::FromSorted(std::move(out));
}

}  // namespace

TermVector TermVector::IntersectMin(const TermVector& a, const TermVector& b) {
  if (Skewed(a.size(), b.size())) {
    return IntersectMinGalloped(a.entries_, b.entries_);
  }
  if (Skewed(b.size(), a.size())) {
    return IntersectMinGalloped(b.entries_, a.entries_);
  }
  std::vector<TermWeight> out(std::min(a.size(), b.size()));
  const size_t n = simd::Active().intersect_min(a.entries_.data(), a.size(),
                                                b.entries_.data(), b.size(),
                                                out.data());
  out.resize(n);
  return FromSorted(std::move(out));
}

TermVector TermVector::Restrict(const TermVector& filter) const {
  if (Skewed(entries_.size(), filter.entries_.size())) {
    // This vector is tiny: keep each of its entries whose term the filter
    // contains, galloping through the filter.
    std::vector<TermWeight> out;
    out.reserve(entries_.size());
    const TermWeight* cur = filter.entries_.data();
    const TermWeight* end = cur + filter.entries_.size();
    for (const TermWeight& e : entries_) {
      cur = GallopLowerBound(cur, end, e.term);
      if (cur == end) break;
      if (cur->term == e.term) {
        out.push_back(e);
        ++cur;
      }
    }
    return FromSorted(std::move(out));
  }
  if (Skewed(filter.entries_.size(), entries_.size())) {
    // The filter is tiny: look each filter term up in this vector.
    std::vector<TermWeight> out;
    out.reserve(filter.entries_.size());
    const TermWeight* cur = entries_.data();
    const TermWeight* end = cur + entries_.size();
    for (const TermWeight& e : filter.entries_) {
      cur = GallopLowerBound(cur, end, e.term);
      if (cur == end) break;
      if (cur->term == e.term) {
        out.push_back(*cur);
        ++cur;
      }
    }
    return FromSorted(std::move(out));
  }
  std::vector<TermWeight> out;
  auto ia = entries_.begin();
  auto ib = filter.entries_.begin();
  while (ia != entries_.end() && ib != filter.entries_.end()) {
    if (ia->term < ib->term) {
      ++ia;
    } else if (ib->term < ia->term) {
      ++ib;
    } else {
      out.push_back(*ia);
      ++ia;
      ++ib;
    }
  }
  return FromSorted(std::move(out));
}

TermVector TermVector::TopKByWeight(size_t k) const {
  if (k >= entries_.size()) return *this;
  std::vector<TermWeight> sorted = entries_;
  std::partial_sort(sorted.begin(), sorted.begin() + k, sorted.end(),
                    [](const TermWeight& a, const TermWeight& b) {
                      return a.weight > b.weight ||
                             (a.weight == b.weight && a.term < b.term);
                    });
  sorted.resize(k);
  return FromUnsorted(std::move(sorted));
}

std::string TermVector::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%u:%.3g", i ? ", " : "",
                  entries_[i].term, entries_[i].weight);
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace rst
