#ifndef RST_RSTKNN_SEARCH_IMPL_H_
#define RST_RSTKNN_SEARCH_IMPL_H_

/// Internals of RstknnSearcher's branch-and-bound engine (rstknn.cc): the
/// tree view, the instrumentation seam, the pair memo and the per-pair
/// competitor judge. Include it only from rstknn.cc and from tests of these
/// internals.
///
/// Both RSTkNN algorithms run over FrozenTreeView, a read-only adapter of
/// the frozen flat-layout snapshot (rst::frozen) that names nodes and
/// entries by their dense uint32_t indices and exposes:
///   * topology — Root, NumEntries, EntryAt, Child, IsObject, Id, Count;
///   * geometry — RectOf;
///   * text     — Summary / ClusterSummary as SummarySpan, which feed the
///                single span-kernel implementation of every similarity
///                bound;
///   * keys     — NodeRefs widen losslessly to uint64_t, which keys the
///                self-path and charged-node sets and the probe heap;
///                EntryKey gives every entry a dense key in
///                [1, EntryKeySpace()) — its explain id — which indexes the
///                pair memo's sparse array and labels EXPLAIN and heatmap
///                records, and EntryLevel gives its tree level;
///   * I/O      — Charge (the papers' simulated accounting).
/// Every queue receives a deterministic insertion sequence and the memo
/// containers are never iterated, so results, RstknnStats, and EXPLAIN
/// output are byte-identical across runs, thread counts, and scratch reuse.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rst/common/check.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace rstknn_internal {

/// Memoized bounds of (candidate, other) for one candidate's two probes.
/// The spatial legs are filled when the pair enters the memo; each blended
/// text leg (mn = MinST, mx = MaxST) only once a decision needs it, since
/// the spatial leg alone often settles the comparison (PairJudge). A lazy
/// cluster refinement recombines the spatial legs with tighter text bounds
/// and fills both legs. Refined bounds are strictly tighter and remain valid
/// brackets, so reusing them across the guaranteed and potential probes
/// never changes answers — only the redundant kernel evaluations disappear.
struct CandPairBounds {
  double spatial_min = 0.0;
  double spatial_max = 0.0;
  double mn = 0.0;  ///< valid iff has_mn
  double mx = 0.0;  ///< valid iff has_mx
  bool has_mn = false;
  bool has_mx = false;
  bool refined = false;
};

/// One candidate's pair memo: a Briggs–Torczon sparse set from dense entry
/// keys to CandPairBounds. `sparse` holds one uint32 per key of the largest
/// key space seen (4 B per entry); `packed` holds the live slots in
/// insertion order and grows with the pairs one candidate touches. A key is
/// live iff its sparse index points inside `packed` at a slot carrying that
/// key, so Clear() is packed.clear() — stale sparse values, from earlier
/// candidates or from another tree's key space, are rejected by that test.
class PairMemo {
 public:
  /// Grows the sparse array to cover keys [0, key_space); never shrinks.
  void Reserve(size_t key_space) {
    RST_CHECK_LE(key_space, size_t{std::numeric_limits<uint32_t>::max()})
        << "entry key space exceeds the pair memo's uint32 keys";
    if (sparse_.size() < key_space) sparse_.resize(key_space);
  }
  void Clear() { packed_.clear(); }

  /// The slot for `key`, and whether it was just inserted (default bounds).
  /// The pointer is valid until the next insertion.
  std::pair<CandPairBounds*, bool> FindOrInsert(uint32_t key) {
    RST_DCHECK_LT(key, sparse_.size());
    uint32_t& index = sparse_[key];
    if (index < packed_.size() && packed_[index].key == key) {
      return {&packed_[index].bounds, false};
    }
    index = static_cast<uint32_t>(packed_.size());
    packed_.push_back({key, CandPairBounds{}});
    return {&packed_.back().bounds, true};
  }

 private:
  struct Slot {
    uint32_t key;
    CandPairBounds bounds;
  };
  std::vector<uint32_t> sparse_;
  std::vector<Slot> packed_;
};

/// One queued node of a competitor probe: its pair MaxST and the node, its
/// NodeRef widened to 64 bits.
struct ProbeItem {
  double max_st;
  uint64_t node;
  bool operator<(const ProbeItem& other) const { return max_st < other.max_st; }
};

/// A contribution-list pair memo entry.
struct PairBoundsValue {
  double mn = 0.0;
  double mx = 0.0;
};

}  // namespace rstknn_internal

/// The working memory behind the public ProbeScratch handle. Entry pair
/// bounds are pure functions of immutable tree entries, so the memos are safe
/// to keep for as long as their scope allows: cand_bounds spans one
/// candidate's two probes, pair_bounds spans one whole contribution-list
/// query. The vectors only ever grow, so once a reused scratch has seen its
/// largest query the probes allocate only when they first open a node (the
/// node-keyed `charged` set). Nodes are keyed by their widened NodeRef and
/// entries by their dense EntryKey, so one scratch serves any tree.
struct ProbeScratch::Impl {
  std::unordered_set<uint64_t> self_path;
  std::unordered_set<uint64_t> charged;
  rstknn_internal::PairMemo cand_bounds;
  std::vector<rstknn_internal::ProbeItem> probe_heap;
  bool self_tb_valid = false;
  TextBounds self_tb;
  /// Keyed by the ordered entry-key pair (a << 32 | b).
  std::unordered_map<uint64_t, rstknn_internal::PairBoundsValue> pair_bounds;

  /// `entry_key_space`: the searched tree's EntryKeySpace().
  void ResetForQuery(size_t entry_key_space) {
    self_path.clear();
    charged.clear();
    pair_bounds.clear();
    cand_bounds.Reserve(entry_key_space);
    ResetForCandidate();
  }
  void ResetForCandidate() {
    cand_bounds.Clear();
    self_tb_valid = false;
  }
};

namespace rstknn_internal {

/// The frozen flat-layout snapshot: entries are stored in explain preorder,
/// so entry index + 1 is both the explain id and the dense pair-memo key.
struct FrozenTreeView {
  using NodeRef = uint32_t;
  using EntryRef = uint32_t;

  const frozen::FrozenTree* tree = nullptr;

  size_t TreeSize() const { return tree->size(); }
  NodeRef Root() const { return tree->root(); }
  size_t NumEntries(NodeRef n) const { return tree->EntryCount(n); }
  EntryRef EntryAt(NodeRef n, size_t i) const {
    return tree->EntryBegin(n) + static_cast<uint32_t>(i);
  }
  bool IsObject(EntryRef e) const { return tree->IsObject(e); }
  ObjectId Id(EntryRef e) const { return tree->ObjectIdOf(e); }
  NodeRef Child(EntryRef e) const { return tree->Child(e); }
  uint32_t Count(EntryRef e) const { return tree->Count(e); }
  const Rect& RectOf(EntryRef e) const { return tree->EntryRect(e); }
  SummarySpan Summary(EntryRef e) const { return tree->Summary(e); }
  size_t NumClusters(EntryRef e) const { return tree->NumClusters(e); }
  SummarySpan ClusterSummary(EntryRef e, size_t i) const {
    return tree->ClusterSummary(e, static_cast<uint32_t>(i));
  }
  uint32_t ClusterCount(EntryRef e, size_t i) const {
    return tree->ClusterCount(e, static_cast<uint32_t>(i));
  }

  /// The explain id: entries are stored in explain preorder.
  uint32_t EntryKey(EntryRef e) const { return e + 1; }
  uint32_t EntryLevel(EntryRef e) const { return tree->EntryLevel(e); }
  size_t EntryKeySpace() const { return size_t{tree->num_entries()} + 1; }

  /// Charges one node access with the papers' simulated accounting.
  void Charge(NodeRef n, RstknnStats* stats) const {
    tree->ChargeAccess(n, &stats->io);
  }
};

/// Cluster-aware text bounds between two entries. An entry with per-cluster
/// summaries (CIUR-tree) is bounded by the min/max over its clusters, which
/// is tighter than its blended summary's bound.
inline TextBounds ViewPairTextBounds(const FrozenTreeView& view,
                                     FrozenTreeView::EntryRef a,
                                     FrozenTreeView::EntryRef b,
                                     const TextSimilarity& sim) {
  const size_t na = view.NumClusters(a);
  const size_t nb = view.NumClusters(b);
  if (na == 0 && nb == 0) {
    const SummarySpan sa = view.Summary(a);
    const SummarySpan sb = view.Summary(b);
    return {sim.MinSim(sa, sb), sim.MaxSim(sa, sb)};
  }
  // Treat an unclustered side as one blended cluster.
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < std::max<size_t>(na, 1); ++i) {
    const SummarySpan sa = na == 0 ? view.Summary(a) : view.ClusterSummary(a, i);
    for (size_t j = 0; j < std::max<size_t>(nb, 1); ++j) {
      const SummarySpan sb =
          nb == 0 ? view.Summary(b) : view.ClusterSummary(b, j);
      bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(sa, sb));
      bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(sa, sb));
    }
  }
  return bounds;
}

/// Cluster-aware text bounds between a summary and an entry.
inline TextBounds ViewBoundsVsClusters(const FrozenTreeView& view,
                                       const SummarySpan& a,
                                       FrozenTreeView::EntryRef b,
                                       const TextSimilarity& sim) {
  const size_t nb = view.NumClusters(b);
  if (nb == 0) {
    const SummarySpan sb = view.Summary(b);
    return {sim.MinSim(a, sb), sim.MaxSim(a, sb)};
  }
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < nb; ++i) {
    const SummarySpan sb = view.ClusterSummary(b, i);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(a, sb));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(a, sb));
  }
  return bounds;
}

inline double ViewClusterEntropy(const FrozenTreeView& view,
                                 FrozenTreeView::EntryRef e) {
  const size_t nc = view.NumClusters(e);
  if (nc == 0) return 0.0;
  std::vector<uint32_t> counts;
  counts.reserve(nc);
  for (size_t i = 0; i < nc; ++i) counts.push_back(view.ClusterCount(e, i));
  return ClusterEntropy(counts);
}

/// Which RstknnStats deltas a SearchObserver scope attaches to its trace span
/// when it closes.
enum class SpanDeltas { kNone, kBounds, kBoundsAndPops };

/// The one instrumentation seam of a search (DESIGN.md §9, §12.1), built
/// once per query from the RstknnOptions instruments (trace, profiler,
/// explain, heatmap) and the result's RstknnStats. It has two operations:
///   * Phase() opens a scope: the profiler phase and the trace span of one
///     region, entered together and exited together;
///   * Decide() takes one branch-and-bound verdict: it bumps the matching
///     decision counter of the stats and records the decision in EXPLAIN and
///     the heatmap under the entry's EntryKey / EntryLevel, so both reconcile
///     with the stats by construction.
/// Hooks fire per candidate and per probe, never per pair; an absent
/// instrument costs one null-pointer test. The per-pair counters
/// (bound_computations, pq_pops, probes, io) stay plain increments on
/// stats(). Constructing the observer resets and stamps the EXPLAIN recorder;
/// the heatmap is deliberately not reset — it accumulates across queries.
class SearchObserver {
 public:
  /// One instrumented region. The span is skipped when `span` is empty.
  class [[nodiscard]] Scope {
   public:
    Scope(const SearchObserver& observer, obs::Phase phase,
          std::string_view span, SpanDeltas deltas)
        : profiler_(observer.options_.profiler),
          trace_(span.empty() ? nullptr : observer.options_.trace),
          stats_(observer.stats_),
          deltas_(deltas) {
      if (trace_ != nullptr) {
        trace_->Enter(span);
        bounds_before_ = stats_->bound_computations;
        pops_before_ = stats_->pq_pops;
      }
      if (profiler_ != nullptr) profiler_->Enter(phase);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->Exit();
      if (trace_ == nullptr) return;
      if (deltas_ != SpanDeltas::kNone) {
        trace_->AddCount(obs::names::kCountBoundComputations,
                         stats_->bound_computations - bounds_before_);
      }
      if (deltas_ == SpanDeltas::kBoundsAndPops) {
        trace_->AddCount(obs::names::kCountPqPops,
                         stats_->pq_pops - pops_before_);
      }
      trace_->Exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attributes `n` to counter `key` of the span (no-op without one).
    void AddCount(std::string_view key, uint64_t n) const {
      if (trace_ != nullptr) trace_->AddCount(key, n);
    }

   private:
    obs::PhaseProfiler* const profiler_;
    obs::QueryTrace* const trace_;
    const RstknnStats* const stats_;
    const SpanDeltas deltas_;
    uint64_t bounds_before_ = 0;
    uint64_t pops_before_ = 0;
  };

  SearchObserver(const FrozenTreeView& view, const RstknnOptions& options,
                 RstknnStats* stats)
      : view_(view), options_(options), stats_(stats) {
    if (options.explain != nullptr) {
      options.explain->Reset();
      options.explain->SetAlgorithm(
          options.algorithm == RstknnAlgorithm::kContributionList
              ? "contribution_list"
              : "probe");
    }
  }

  RstknnStats* stats() const { return stats_; }

  Scope Phase(obs::Phase phase, std::string_view span = {},
              SpanDeltas deltas = SpanDeltas::kNone) const {
    return Scope(*this, phase, span, deltas);
  }

  /// One verdict on `entry`, whose similarity to q lies in [q_min, q_max]
  /// and which settles `decided_objects` objects.
  void Decide(FrozenTreeView::EntryRef entry, double q_min, double q_max,
              obs::ExplainVerdict verdict, obs::ExplainBound bound,
              uint64_t decided_objects) const {
    switch (verdict) {
      case obs::ExplainVerdict::kPrune:
      case obs::ExplainVerdict::kReportMiss:
        ++stats_->pruned_entries;
        break;
      case obs::ExplainVerdict::kReportHit:
        ++stats_->reported_entries;
        break;
      case obs::ExplainVerdict::kExpand:
        ++stats_->expansions;
        break;
    }
    obs::ExplainRecorder* explain = options_.explain;
    obs::HeatmapRecorder* heatmap = options_.heatmap;
    if (explain == nullptr && heatmap == nullptr) return;
    const uint64_t id = view_.EntryKey(entry);
    const uint32_t level = view_.EntryLevel(entry);
    if (explain != nullptr) {
      explain->Record(
          {id, level, verdict, bound, q_min, q_max, decided_objects});
    }
    if (heatmap != nullptr) {
      heatmap->Record(id, level, verdict, bound, decided_objects);
    }
  }

 private:
  const FrozenTreeView& view_;
  const RstknnOptions& options_;
  RstknnStats* const stats_;
};

/// Appends the ids of every object under `entry` except `exclude`.
inline void CollectObjectIds(const FrozenTreeView& view,
                             FrozenTreeView::EntryRef entry, ObjectId exclude,
                             std::vector<ObjectId>* out) {
  if (view.IsObject(entry)) {
    if (view.Id(entry) != exclude) out->push_back(view.Id(entry));
    return;
  }
  const auto child = view.Child(entry);
  for (size_t i = 0, n = view.NumEntries(child); i < n; ++i) {
    CollectObjectIds(view, view.EntryAt(child, i), exclude, out);
  }
}

/// A competitor probe's verdict on one (candidate, other) entry pair.
enum class PairVerdict {
  kDrop,   ///< no object under `other` clears the threshold
  kCount,  ///< every object under `other` clears it (count wholesale)
  kPush,   ///< a straddling node: descend it, keyed by its exact MaxST
};

/// The per-pair decision of CountCompetitors (DESIGN.md §3.2). The eager rule
/// computes both blended bounds mn = MinST(E, other) and mx = MaxST(E, other),
/// refines them per cluster when they straddle the threshold
/// (mn <= threshold < mx), then decides:
///   * object:  count iff (guaranteed ? mn : mx) > threshold;
///   * node:    drop iff mx <= threshold; count iff mn > threshold and the
///              subtree is disjoint from the candidate; otherwise push at mx.
/// Judge() reaches the same verdict, with the same memo state and counters,
/// but evaluates each leg only when the verdict still depends on it, in the
/// order spatial legs → MaxSim → MinSim → cluster refinement. Every text
/// bound lies in [0, 1], StScorer keeps α in [0, 1] and rounding is
/// monotone, so a blended leg spatial + fl((1−α)·t) lies between spatial + 0
/// and spatial + (1−α): whenever that bracket sits wholly on one side of the
/// threshold, the comparison is settled without running a text kernel.
class PairJudge {
 public:
  using EntryRef = FrozenTreeView::EntryRef;

  PairJudge(const FrozenTreeView& view, const StScorer& scorer, EntryRef e)
      : view_(view),
        scorer_(scorer),
        e_rect_(view.RectOf(e)),
        e_sum_(view.Summary(e)),
        alpha_(scorer.options().alpha),
        text_weight_(1.0 - alpha_),
        text_lo_(0.0),
        text_hi_(text_weight_) {}

  /// `bounds` is the pair's memo slot; `fresh` says it was just inserted
  /// (then its spatial legs are filled and bound_computations counts the
  /// pair). On kPush, bounds->mx holds the exact MaxST.
  PairVerdict Judge(CandPairBounds* bounds, bool fresh, EntryRef other,
                    double threshold, bool guaranteed, bool overlaps_cand,
                    RstknnStats* stats) const {
    if (fresh) {
      const Rect& other_rect = view_.RectOf(other);
      bounds->spatial_min =
          alpha_ * scorer_.SpatialSim(MaxDistance(e_rect_, other_rect));
      bounds->spatial_max =
          alpha_ * scorer_.SpatialSim(MinDistance(e_rect_, other_rect));
      ++stats->bound_computations;
    }
    // Lazy cluster refinement: per-cluster bounds (up to |clusters| kernel
    // pairs) only when the blended bounds straddle the threshold and could
    // change the outcome; a refined pair stays refined — tighter bounds are
    // still valid brackets at the other probe's threshold.
    if (!bounds->refined && view_.NumClusters(other) > 0 &&
        MaxAbove(bounds, other, threshold) &&
        !MinAbove(bounds, other, threshold)) {
      const TextBounds tb =
          ViewBoundsVsClusters(view_, e_sum_, other, scorer_.text());
      ++stats->bound_computations;
      bounds->mn = bounds->spatial_min + text_weight_ * tb.min_sim;
      bounds->mx = bounds->spatial_max + text_weight_ * tb.max_sim;
      bounds->has_mn = bounds->has_mx = true;
      bounds->refined = true;
    }
    if (view_.IsObject(other)) {
      const bool above = guaranteed ? MinAbove(bounds, other, threshold)
                                    : MaxAbove(bounds, other, threshold);
      return above ? PairVerdict::kCount : PairVerdict::kDrop;
    }
    if (!MaxAbove(bounds, other, threshold)) return PairVerdict::kDrop;
    if (!overlaps_cand && MinAbove(bounds, other, threshold)) {
      return PairVerdict::kCount;
    }
    if (!bounds->has_mx) {
      bounds->mx = bounds->spatial_max + text_weight_ * MaxSim(other);
      bounds->has_mx = true;
    }
    return PairVerdict::kPush;
  }

 private:
  double MinSim(EntryRef other) const {
    return scorer_.text().MinSim(e_sum_, view_.Summary(other));
  }
  double MaxSim(EntryRef other) const {
    return scorer_.text().MaxSim(e_sum_, view_.Summary(other));
  }

  /// mn > threshold, running MinSim only when the bracket straddles.
  bool MinAbove(CandPairBounds* bounds, EntryRef other,
                double threshold) const {
    if (!bounds->has_mn) {
      if (bounds->spatial_min + text_lo_ > threshold) return true;
      if (bounds->spatial_min + text_hi_ <= threshold) return false;
      bounds->mn = bounds->spatial_min + text_weight_ * MinSim(other);
      bounds->has_mn = true;
    }
    return bounds->mn > threshold;
  }
  /// mx > threshold, running MaxSim only when the bracket straddles.
  bool MaxAbove(CandPairBounds* bounds, EntryRef other,
                double threshold) const {
    if (!bounds->has_mx) {
      if (bounds->spatial_max + text_lo_ > threshold) return true;
      if (bounds->spatial_max + text_hi_ <= threshold) return false;
      bounds->mx = bounds->spatial_max + text_weight_ * MaxSim(other);
      bounds->has_mx = true;
    }
    return bounds->mx > threshold;
  }

  const FrozenTreeView& view_;
  const StScorer& scorer_;
  const Rect& e_rect_;
  const SummarySpan e_sum_;
  const double alpha_;
  const double text_weight_;  ///< 1 − α
  const double text_lo_;      ///< 0: StScorer keeps α in [0, 1]
  const double text_hi_;      ///< 1 − α
};

}  // namespace rstknn_internal
}  // namespace rst

#endif  // RST_RSTKNN_SEARCH_IMPL_H_
