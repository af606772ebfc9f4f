#ifndef RST_RSTKNN_SEARCH_IMPL_H_
#define RST_RSTKNN_SEARCH_IMPL_H_

/// Internals of RstknnSearcher's branch-and-bound engine (rstknn.cc): the
/// per-query working memory, the cluster-aware text bounds, the
/// instrumentation seam, the pair memo and the per-pair competitor judge.
/// Include it only from rstknn.cc and from tests of these internals.
///
/// Both RSTkNN algorithms run directly on frozen::FrozenTree, whose dense
/// uint32_t indices name everything the search keys:
///   * a node index addresses its byte of marks (on the query object's root
///     path, already charged) in ProbeScratch::Impl::node_marks and keys the
///     probe heap;
///   * an entry index keys the pair memos; entry e is stored in explain
///     preorder, so e + 1 is its explain id, which labels EXPLAIN and heatmap
///     records.
/// Every queue receives a deterministic insertion sequence and the memo
/// containers are never iterated, so results, RstknnStats, and EXPLAIN
/// output are byte-identical across runs, thread counts, and scratch reuse.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
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

/// One candidate's pair memo: a Briggs–Torczon sparse set from entry
/// indices to CandPairBounds. `sparse` holds one uint32 per entry of the
/// largest tree seen (4 B per entry); `packed` holds the live slots in
/// insertion order and grows with the pairs one candidate touches. A key is
/// live iff its sparse index points inside `packed` at a slot carrying that
/// key, so Clear() is packed.clear() — stale sparse values, from earlier
/// candidates or from another tree, are rejected by that test.
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

/// One queued node of a competitor probe: its pair MaxST and its index.
struct ProbeItem {
  double max_st;
  uint32_t node;
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
/// largest query and tree the probes do not allocate. Nodes and entries are
/// keyed by their indices in the searched tree, so one scratch serves any
/// tree.
struct ProbeScratch::Impl {
  /// node_marks bits: the node's subtree holds the query object; the node's
  /// I/O is already charged this query.
  static constexpr uint8_t kOnSelfPath = 1;
  static constexpr uint8_t kCharged = 2;

  /// One byte of marks per node of the searched tree.
  std::vector<uint8_t> node_marks;
  rstknn_internal::PairMemo cand_bounds;
  std::vector<rstknn_internal::ProbeItem> probe_heap;
  bool self_tb_valid = false;
  TextBounds self_tb;
  /// Keyed by the ordered entry-index pair (a << 32 | b).
  std::unordered_map<uint64_t, rstknn_internal::PairBoundsValue> pair_bounds;

  void ResetForQuery(const frozen::FrozenTree& tree) {
    node_marks.assign(tree.num_nodes(), 0);
    pair_bounds.clear();
    cand_bounds.Reserve(tree.num_entries());
    ResetForCandidate();
  }
  void ResetForCandidate() {
    cand_bounds.Clear();
    self_tb_valid = false;
  }

  bool OnSelfPath(uint32_t node) const {
    return (node_marks[node] & kOnSelfPath) != 0;
  }
  /// Marks `node` charged; true iff it was not yet.
  bool MarkCharged(uint32_t node) {
    const bool fresh = (node_marks[node] & kCharged) == 0;
    node_marks[node] |= kCharged;
    return fresh;
  }
};

namespace rstknn_internal {

using frozen::FrozenTree;

/// One side of a cluster-aware text bound: the per-cluster summaries of
/// `entry` when it has any (CIUR-tree), else the one blended summary.
struct TextSide {
  SummarySpan blended;
  uint32_t entry = 0;
  uint32_t clusters = 0;  ///< 0: the side is `blended` alone
};

/// Entry `e` of `tree`, bounded by its clusters if it has any.
inline TextSide EntrySide(const FrozenTree& tree, uint32_t e) {
  return {tree.Summary(e), e, tree.NumClusters(e)};
}

/// A bare summary: one blended side.
inline TextSide SummarySide(const SummarySpan& summary) { return {summary}; }

/// Text bounds of side `a` against side `b` (in that order: kSum is
/// asymmetric). A clustered side is bounded by the min/max over its
/// clusters, which is tighter than its blended summary's bound.
inline TextBounds SideTextBounds(const FrozenTree& tree, const TextSide& a,
                                 const TextSide& b, const TextSimilarity& sim) {
  if (a.clusters == 0 && b.clusters == 0) {
    return {sim.MinSim(a.blended, b.blended), sim.MaxSim(a.blended, b.blended)};
  }
  TextBounds bounds{1.0, 0.0};
  for (uint32_t i = 0; i < std::max(a.clusters, 1u); ++i) {
    const SummarySpan sa =
        a.clusters == 0 ? a.blended : tree.ClusterSummary(a.entry, i);
    for (uint32_t j = 0; j < std::max(b.clusters, 1u); ++j) {
      const SummarySpan sb =
          b.clusters == 0 ? b.blended : tree.ClusterSummary(b.entry, j);
      bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(sa, sb));
      bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(sa, sb));
    }
  }
  return bounds;
}

/// Weight of the cluster-entropy term in an entry's TE expansion priority
/// (q_max + kEntropyWeight * EntryClusterEntropy).
inline constexpr double kEntropyWeight = 0.25;

/// The TE expansion bias of entry `e`: the entropy of its cluster sizes (0
/// on an unclustered tree).
inline double EntryClusterEntropy(const FrozenTree& tree, uint32_t e) {
  const uint32_t nc = tree.NumClusters(e);
  if (nc == 0) return 0.0;
  std::vector<uint32_t> counts;
  counts.reserve(nc);
  for (uint32_t i = 0; i < nc; ++i) counts.push_back(tree.ClusterCount(e, i));
  return ClusterEntropy(counts);
}

/// The instrumented regions of a search. The order is also the order in
/// which both algorithms first enter them (the probe search: setup, then
/// each candidate's probes, then expansions; the contribution-list search:
/// pick, contributions, then expansions), so the span tree built from the
/// rows keeps the children order of spans entered as they ran.
enum class Region : uint8_t {
  kSetup = 0,
  kProbeGuaranteed,
  kProbePotential,
  kPick,
  kContributions,
  kExpand,
  kFinalize,
};

inline constexpr size_t kNumRegions = 7;

/// The counter deltas a region's span carries, as a bit set.
enum RegionCounts : uint8_t {
  kNoCounts = 0,
  kBoundsCount = 1,   ///< RstknnStats::bound_computations
  kPopsCount = 2,     ///< RstknnStats::pq_pops
  kEntriesCount = 4,  ///< entries a node expansion adds (Scope::AddEntries)
};

/// The fixed map from a region to its profiler phase, its trace span (null:
/// no span) and the counts that span carries.
struct RegionInfo {
  obs::Phase phase;
  const char* span;
  uint8_t counts;
};

inline constexpr RegionInfo kRegionInfo[kNumRegions] = {
    {obs::Phase::kDescent, obs::names::kSpanSetup, kNoCounts},
    {obs::Phase::kBounds, obs::names::kSpanProbeGuaranteed,
     kBoundsCount | kPopsCount},
    {obs::Phase::kBounds, obs::names::kSpanProbePotential,
     kBoundsCount | kPopsCount},
    {obs::Phase::kDescent, obs::names::kSpanPick, kNoCounts},
    {obs::Phase::kMerge, obs::names::kSpanContributions, kBoundsCount},
    {obs::Phase::kDescent, obs::names::kSpanExpand, kEntriesCount},
    {obs::Phase::kFinalize, nullptr, kNoCounts},
};

/// One region's row of a query's time record: wall time, entries, and the
/// counter deltas accumulated inside the region.
struct RegionRow {
  uint64_t ns = 0;
  uint64_t calls = 0;
  uint64_t bound_computations = 0;
  uint64_t pq_pops = 0;
  uint64_t entries = 0;
};

/// The one instrumentation seam of a search (DESIGN.md §9, §12.1), built
/// once per query from the RstknnOptions instruments (trace, profiler,
/// explain, heatmap) and the result's RstknnStats. It has two operations:
///   * Time() opens a scope over one region. With a trace or a profiler
///     attached the scope reads the clock once on entry and once on exit
///     and adds the interval, one call and the region's counter deltas to
///     the region's row of the query's time record. Scopes never nest (a
///     debug check asserts it), so the rows are disjoint slices of the
///     query. When the search returns, the observer adds each row to its
///     phase of the profiler and appends each named row as a completed
///     child span of the innermost open trace span (the algorithm span);
///   * Decide() takes one branch-and-bound verdict: it bumps the matching
///     decision counter of the stats and records the decision in EXPLAIN and
///     the heatmap under the entry's explain id (index + 1) and level, so both
///     reconcile with the stats by construction.
/// Hooks fire per candidate and per probe, never per pair; with no
/// instrument attached a scope costs one flag test and reads no clock. The
/// per-pair counters (bound_computations, pq_pops, probes, io) stay plain
/// increments on stats(). Constructing the observer resets and stamps the
/// EXPLAIN recorder; the heatmap is deliberately not reset — it accumulates
/// across queries.
class SearchObserver {
 public:
  /// One timed region (see Time()).
  class [[nodiscard]] Scope {
   public:
    Scope(const SearchObserver& observer, Region region)
        : observer_(observer.timed_ ? &observer : nullptr), region_(region) {
      if (observer_ == nullptr) return;
      RST_DCHECK(!observer_->scope_open_) << "search scopes never nest";
      observer_->scope_open_ = true;
      bounds_before_ = observer_->stats_->bound_computations;
      pops_before_ = observer_->stats_->pq_pops;
      start_ = Clock::now();
    }
    ~Scope() {
      if (observer_ == nullptr) return;
      const Clock::time_point end = Clock::now();
      RegionRow& row = observer_->rows_[static_cast<size_t>(region_)];
      row.ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count());
      ++row.calls;
      row.bound_computations +=
          observer_->stats_->bound_computations - bounds_before_;
      row.pq_pops += observer_->stats_->pq_pops - pops_before_;
      observer_->scope_open_ = false;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Adds `n` to the entries count of the region (an expansion's
    /// children).
    void AddEntries(uint64_t n) const {
      if (observer_ != nullptr) {
        observer_->rows_[static_cast<size_t>(region_)].entries += n;
      }
    }

   private:
    using Clock = std::chrono::steady_clock;
    const SearchObserver* const observer_;
    const Region region_;
    uint64_t bounds_before_ = 0;
    uint64_t pops_before_ = 0;
    Clock::time_point start_;
  };

  SearchObserver(const FrozenTree& tree, const RstknnOptions& options,
                 RstknnStats* stats)
      : tree_(tree),
        options_(options),
        stats_(stats),
        timed_(options.trace != nullptr || options.profiler != nullptr) {
    if (options.explain != nullptr) {
      options.explain->Reset();
      options.explain->SetAlgorithm(
          options.algorithm == RstknnAlgorithm::kContributionList
              ? "contribution_list"
              : "probe");
    }
  }

  /// Hands the time record to the attached profiler and trace.
  ~SearchObserver() {
    if (!timed_) return;
    for (size_t r = 0; r < kNumRegions; ++r) {
      const RegionRow& row = rows_[r];
      if (row.calls == 0) continue;
      const RegionInfo& info = kRegionInfo[r];
      const double ms = static_cast<double>(row.ns) * 1e-6;
      if (options_.profiler != nullptr) {
        options_.profiler->Add(info.phase, ms, row.calls);
      }
      if (options_.trace == nullptr || info.span == nullptr) continue;
      std::pair<std::string_view, uint64_t> counts[3];
      size_t n = 0;
      if (info.counts & kBoundsCount) {
        counts[n++] = {obs::names::kCountBoundComputations,
                       row.bound_computations};
      }
      if (info.counts & kPopsCount) {
        counts[n++] = {obs::names::kCountPqPops, row.pq_pops};
      }
      if (info.counts & kEntriesCount) {
        counts[n++] = {obs::names::kCountEntries, row.entries};
      }
      options_.trace->AddCompleted(info.span, ms, row.calls,
                                   std::span(counts, n));
    }
  }
  SearchObserver(const SearchObserver&) = delete;
  SearchObserver& operator=(const SearchObserver&) = delete;

  RstknnStats* stats() const { return stats_; }

  Scope Time(Region region) const { return Scope(*this, region); }

  /// One verdict on `entry`, whose similarity to q lies in [q_min, q_max]
  /// and which settles `decided_objects` objects.
  void Decide(uint32_t entry, double q_min, double q_max,
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
    const uint64_t id = uint64_t{entry} + 1;  // the explain id
    const uint32_t level = tree_.EntryLevel(entry);
    if (explain != nullptr) {
      explain->Record(
          {id, level, verdict, bound, q_min, q_max, decided_objects});
    }
    if (heatmap != nullptr) {
      heatmap->Record(id, level, verdict, bound, decided_objects);
    }
  }

 private:
  const FrozenTree& tree_;
  const RstknnOptions& options_;
  RstknnStats* const stats_;
  /// A trace or a profiler is attached: scopes read the clock.
  const bool timed_;
  /// The query's time record, one row per Region.
  mutable RegionRow rows_[kNumRegions] = {};
  mutable bool scope_open_ = false;
};

/// Appends the ids of every object under `entry` except `exclude`.
inline void CollectObjectIds(const FrozenTree& tree, uint32_t entry,
                             ObjectId exclude, std::vector<ObjectId>* out) {
  if (tree.IsObject(entry)) {
    const ObjectId id = tree.ObjectIdOf(entry);
    if (id != exclude) out->push_back(id);
    return;
  }
  const uint32_t child = tree.Child(entry);
  const uint32_t begin = tree.EntryBegin(child);
  for (uint32_t e = begin; e < begin + tree.EntryCount(child); ++e) {
    CollectObjectIds(tree, e, exclude, out);
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
  PairJudge(const FrozenTree& tree, const StScorer& scorer, uint32_t e)
      : tree_(tree),
        scorer_(scorer),
        e_rect_(tree.EntryRect(e)),
        e_sum_(tree.Summary(e)),
        alpha_(scorer.options().alpha),
        text_weight_(1.0 - alpha_),
        text_lo_(0.0),
        text_hi_(text_weight_) {}

  /// `bounds` is the pair's memo slot; `fresh` says it was just inserted
  /// (then its spatial legs are filled and bound_computations counts the
  /// pair). On kPush, bounds->mx holds the exact MaxST.
  PairVerdict Judge(CandPairBounds* bounds, bool fresh, uint32_t other,
                    double threshold, bool guaranteed, bool overlaps_cand,
                    RstknnStats* stats) const {
    if (fresh) {
      const Rect& other_rect = tree_.EntryRect(other);
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
    if (!bounds->refined && tree_.NumClusters(other) > 0 &&
        MaxAbove(bounds, other, threshold) &&
        !MinAbove(bounds, other, threshold)) {
      const TextBounds tb = SideTextBounds(tree_, SummarySide(e_sum_),
                                           EntrySide(tree_, other),
                                           scorer_.text());
      ++stats->bound_computations;
      bounds->mn = bounds->spatial_min + text_weight_ * tb.min_sim;
      bounds->mx = bounds->spatial_max + text_weight_ * tb.max_sim;
      bounds->has_mn = bounds->has_mx = true;
      bounds->refined = true;
    }
    if (tree_.IsObject(other)) {
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
  double MinSim(uint32_t other) const {
    return scorer_.text().MinSim(e_sum_, tree_.Summary(other));
  }
  double MaxSim(uint32_t other) const {
    return scorer_.text().MaxSim(e_sum_, tree_.Summary(other));
  }

  /// mn > threshold, running MinSim only when the bracket straddles.
  bool MinAbove(CandPairBounds* bounds, uint32_t other,
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
  bool MaxAbove(CandPairBounds* bounds, uint32_t other,
                double threshold) const {
    if (!bounds->has_mx) {
      if (bounds->spatial_max + text_lo_ > threshold) return true;
      if (bounds->spatial_max + text_hi_ <= threshold) return false;
      bounds->mx = bounds->spatial_max + text_weight_ * MaxSim(other);
      bounds->has_mx = true;
    }
    return bounds->mx > threshold;
  }

  const FrozenTree& tree_;
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
