#ifndef RST_RSTKNN_SEARCH_IMPL_H_
#define RST_RSTKNN_SEARCH_IMPL_H_

/// The templated branch-and-bound engine behind RstknnSearcher, shared by
/// rstknn.cc (the frozen single-tree view) and rst::shard (forest views).
/// Everything here is an implementation detail: include it only from .cc
/// files that instantiate a search over a concrete tree view.
///
/// The tree-view abstraction: both RSTkNN algorithms are templates over a
/// read-only view, so the frozen flat-layout snapshot (rst::frozen) and the
/// sharded forest of frozen trees (rst::shard) run the exact same code. A
/// view names nodes and entries by integer NodeRef/EntryRef values (dense
/// indices for the frozen tree, packed (shard, index) words for the forest)
/// and exposes:
///   * topology    — Root, NumEntries, EntryAt, Child, IsObject, Id, Count;
///   * geometry    — RectOf;
///   * text        — Summary / ClusterSummary as SummarySpan, which feed the
///                   single span-kernel implementation of every similarity
///                   bound;
///   * keys        — NodeRefs widen losslessly to uint64_t, which keys the
///                   self-path and charged-node sets and the probe heap;
///                   EntryKey gives every entry a dense key in
///                   [1, EntryKeySpace()) — its explain id — which indexes
///                   the pair memo's sparse array and labels EXPLAIN and
///                   heatmap records, and EntryLevel gives its tree level;
///   * I/O         — Charge (the papers' simulated accounting),
///                   given the query's SearchObserver;
///   * scope hooks — ProbeRoot / CollectSelfPath / ForEachContextEntry,
///                   which default to the single-tree behaviour and let a
///                   shard-scoped view search one tree of a forest while
///                   counting competitors forest-wide (DESIGN.md §15):
///       - ProbeRoot() is where CountCompetitors starts its best-first
///         descent (default: Root());
///       - CollectSelfPath() collects the node set on the query object's
///         root path (default: a descent from Root());
///       - ForEachContextEntry() yields extra contributor-only entries that
///         the contribution-list algorithm must account for but never report
///         (default: none; the forest view yields one virtual entry per
///         foreign shard).
/// Every queue receives a deterministic insertion sequence and the memo
/// containers are never iterated, so results, RstknnStats, and EXPLAIN
/// output are byte-identical across runs, thread counts, and scratch reuse.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rst/common/check.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/explain.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/rstknn/rstknn.h"
#include "rst/rstknn/search_observer.h"

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
/// candidates or from another view's key space, are rejected by that test.
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
/// NodeRef widened to 64 bits (so one heap serves every view).
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
/// entries by the view's dense EntryKey, so the same scratch serves every
/// tree view — never mix views within one query, which no searcher does.
struct ProbeScratch::Impl {
  std::unordered_set<uint64_t> self_path;
  std::unordered_set<uint64_t> charged;
  rstknn_internal::PairMemo cand_bounds;
  std::vector<rstknn_internal::ProbeItem> probe_heap;
  bool self_tb_valid = false;
  TextBounds self_tb;
  /// Keyed by the ordered entry-key pair (a << 32 | b).
  std::unordered_map<uint64_t, rstknn_internal::PairBoundsValue> pair_bounds;

  /// `entry_key_space`: the searched view's EntryKeySpace().
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

/// The bracket every searcher (RstknnSearcher, shard::ShardedSearcher) runs
/// one query in, defined in rstknn.cc: it resets options.profiler, runs
/// `search` (which fills `answers` and `stats`), publishes the profiler's
/// phases and — unless options.publish_metrics is false — the rstknn.queries
/// / answers / query.ms metrics and the stats.
void RunQuery(const RstknnOptions& options,
              const std::vector<ObjectId>& answers, const RstknnStats& stats,
              const std::function<void()>& search);

/// A query's working memory — the caller's scratch (its containers keep
/// their capacity across a batch) or a fresh one held in `local` — reset for
/// `view`, with the query object's root path collected.
template <typename View>
ProbeScratch* AcquireScratch(const View& view, const RstknnQuery& query,
                             const RstknnOptions& options,
                             std::unique_ptr<ProbeScratch>* local) {
  ProbeScratch* scratch = options.scratch;
  if (scratch == nullptr) {
    *local = std::make_unique<ProbeScratch>();
    scratch = local->get();
  }
  ProbeScratch::Impl* mem = scratch->impl();
  mem->ResetForQuery(view.EntryKeySpace());
  if (query.self != IurTree::kNoObject) {
    view.CollectSelfPath(query.self, &mem->self_path);
  }
  return scratch;
}

/// Collects the node set on the root-to-leaf path of object `id`.
template <typename View>
bool CollectPath(const View& view, typename View::NodeRef node, ObjectId id,
                 std::unordered_set<uint64_t>* path) {
  for (size_t i = 0, n = view.NumEntries(node); i < n; ++i) {
    const auto e = view.EntryAt(node, i);
    if (view.IsObject(e)) {
      if (view.Id(e) == id) {
        path->insert(node);
        return true;
      }
    } else if (CollectPath(view, view.Child(e), id, path)) {
      path->insert(node);
      return true;
    }
  }
  return false;
}

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

  /// Scope hooks (single-tree defaults; see the header comment).
  NodeRef ProbeRoot() const { return Root(); }
  void CollectSelfPath(ObjectId id, std::unordered_set<uint64_t>* path) const {
    CollectPath(*this, Root(), id, path);
  }
  template <typename Fn>
  void ForEachContextEntry(Fn&&) const {}

  /// Charges one node access with the papers' simulated accounting.
  void Charge(NodeRef n,
              const SearchObserver<FrozenTreeView>& observer) const {
    tree->ChargeAccess(n, &observer.stats()->io);
  }
};

/// Cluster-aware text bounds over a view's entries. An entry with per-cluster
/// summaries (CIUR-tree) is bounded by the min/max over its clusters, which
/// is tighter than its blended summary's bound.
template <typename View>
TextBounds ViewEntryTextBounds(const View& view, typename View::EntryRef e,
                               const SummarySpan& other,
                               const TextSimilarity& sim) {
  const size_t nc = view.NumClusters(e);
  if (nc == 0) {
    const SummarySpan s = view.Summary(e);
    return {sim.MinSim(s, other), sim.MaxSim(s, other)};
  }
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < nc; ++i) {
    const SummarySpan s = view.ClusterSummary(e, i);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(s, other));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(s, other));
  }
  return bounds;
}

template <typename View>
TextBounds ViewPairTextBounds(const View& view, typename View::EntryRef a,
                              typename View::EntryRef b,
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

template <typename View>
TextBounds ViewBoundsVsClusters(const View& view, const SummarySpan& a,
                                typename View::EntryRef b,
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

template <typename View>
double ViewClusterEntropy(const View& view, typename View::EntryRef e) {
  const size_t nc = view.NumClusters(e);
  if (nc == 0) return 0.0;
  std::vector<uint32_t> counts;
  counts.reserve(nc);
  for (size_t i = 0; i < nc; ++i) counts.push_back(view.ClusterCount(e, i));
  return ClusterEntropy(counts);
}

/// [MinST(q, E), MaxST(q, E)] of a node entry E: its spatial bounds to the
/// query location blended with its (cluster-aware) text bounds to `qspan`.
template <typename View>
std::pair<double, double> QueryEntryBounds(const View& view,
                                           const StScorer& scorer,
                                           const RstknnQuery& query,
                                           const SummarySpan& qspan,
                                           typename View::EntryRef e) {
  const double alpha = scorer.options().alpha;
  const TextBounds tb = ViewEntryTextBounds(view, e, qspan, scorer.text());
  const Rect& rect = view.RectOf(e);
  return {alpha * scorer.SpatialSim(MaxDistance(query.loc, rect)) +
              (1.0 - alpha) * tb.min_sim,
          alpha * scorer.SpatialSim(MinDistance(query.loc, rect)) +
              (1.0 - alpha) * tb.max_sim};
}

/// A candidate entry of the branch-and-bound search: a subtree (or object)
/// whose membership in the answer is still to be decided. Candidates live in
/// an index arena; `home` and the `parent` links spell out the candidate's
/// root path (the nodes whose subtrees contain it), which the probes use to
/// avoid double-counting the candidate's own objects.
template <typename View>
struct Candidate {
  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

  typename View::EntryRef entry{};
  typename View::NodeRef home{};  ///< the node holding `entry`
  uint32_t parent = kNoParent;    ///< arena index of the expanded candidate
                                  ///< whose child node is `home`
  bool contains_self = false;     ///< subtree holds the query object
  double q_min = 0.0;             ///< MinST(q, E)
  double q_max = 0.0;             ///< MaxST(q, E)
  double priority = 0.0;
};

/// True iff `node` lies on the root path of arena[index]: at most one link
/// per tree level.
template <typename View>
bool OnCandidatePath(const Candidate<View>* arena, uint32_t index,
                     typename View::NodeRef node) {
  for (;;) {
    const Candidate<View>& c = arena[index];
    if (c.home == node) return true;
    if (c.parent == Candidate<View>::kNoParent) return false;
    index = c.parent;
  }
}

template <typename View>
void CollectObjectIds(const View& view, typename View::EntryRef entry,
                      ObjectId exclude, std::vector<ObjectId>* out) {
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
template <typename View>
class PairJudge {
 public:
  using EntryRef = typename View::EntryRef;

  PairJudge(const View& view, const StScorer& scorer, EntryRef e)
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

  const View& view_;
  const StScorer& scorer_;
  const Rect& e_rect_;
  const SummarySpan e_sum_;
  const double alpha_;
  const double text_weight_;  ///< 1 − α
  const double text_lo_;      ///< 0: StScorer keeps α in [0, 1]
  const double text_hi_;      ///< 1 − α
};

/// Counts competitor objects of candidate E = arena[cand] against
/// `threshold`, stopping at k. In *guaranteed* mode (prune test, threshold =
/// MaxST(q,E)) an object o' is counted only when every object of E is
/// certainly more similar to o' than to q: pair MinST(E, o') > threshold;
/// disjoint subtrees whose MinST already clears the threshold are counted
/// wholesale. In *potential* mode (report test, threshold = MinST(q,E)) an
/// object is counted when it COULD exceed the threshold (pair MaxST >
/// threshold). Traversal is best-first by pair MaxST, so it terminates as
/// soon as no remaining subtree can matter — and for an object candidate in
/// guaranteed mode the count is exact, which forces a decision at leaf level.
/// The descent starts at view.ProbeRoot(), so a shard-scoped view counts
/// competitors across the whole forest. The pair memo and the probe heap
/// live in `mem`, so a probe allocates only to record a newly opened node.
/// Work counters land in `observer`'s stats.
template <typename View>
size_t CountCompetitors(const View& view, const StScorer& scorer,
                        const SearchObserver<View>& observer,
                        const Candidate<View>* arena, uint32_t cand,
                        ProbeScratch::Impl* mem, double threshold, size_t k,
                        ObjectId exclude, bool guaranteed) {
  using NodeRef = typename View::NodeRef;
  RstknnStats* stats = observer.stats();
  const auto& exclude_path = mem->self_path;
  const auto e = arena[cand].entry;
  const Rect& e_rect = view.RectOf(e);
  const bool e_is_object = view.IsObject(e);
  const double alpha = scorer.options().alpha;
  ++stats->probes;
  auto charge_once = [&](NodeRef node) {
    // The branch-and-bound keeps every opened node resident for the whole
    // query (the contribution lists reference them), so each node costs its
    // I/O once per query regardless of how many probes revisit it.
    if (mem->charged.insert(node).second) view.Charge(node, observer);
  };

  size_t count = 0;
  // Self term: the candidate's own other objects compete among themselves.
  // The pair text bounds are threshold-independent, so the potential probe
  // reuses what the guaranteed probe computed.
  uint32_t own = view.Count(e) - (arena[cand].contains_self ? 1 : 0);
  if (own > 1) {
    if (!mem->self_tb_valid) {
      mem->self_tb = ViewPairTextBounds(view, e, e, scorer.text());
      mem->self_tb_valid = true;
      ++stats->bound_computations;
    }
    const TextBounds& tb = mem->self_tb;
    const double intra =
        guaranteed
            ? alpha * scorer.SpatialSim(MaxDistance(e_rect, e_rect)) +
                  (1.0 - alpha) * tb.min_sim
            : alpha * 1.0 + (1.0 - alpha) * tb.max_sim;
    if (intra > threshold) {
      count += own - 1;
      if (count >= k) return k;
    }
  }

  // Pair bounds are memoized per candidate (keyed by the other entry) so the
  // potential probe reuses the guaranteed probe's legs.
  const PairJudge<View> judge(view, scorer, e);
  CandPairBounds* bounds = nullptr;  // the slot judge_pair last decided
  auto judge_pair = [&](typename View::EntryRef other, bool overlaps_cand) {
    bool fresh = false;
    std::tie(bounds, fresh) =
        mem->cand_bounds.FindOrInsert(view.EntryKey(other));
    return judge.Judge(bounds, fresh, other, threshold, guaranteed,
                       overlaps_cand, stats);
  };

  std::vector<ProbeItem>& heap = mem->probe_heap;
  heap.clear();
  heap.push_back({1.0, view.ProbeRoot()});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const ProbeItem item = heap.back();
    heap.pop_back();
    ++stats->pq_pops;
    if (item.max_st <= threshold) break;  // nothing left can matter
    const NodeRef node = static_cast<NodeRef>(item.node);
    charge_once(node);
    for (size_t i = 0, n = view.NumEntries(node); i < n; ++i) {
      const auto child = view.EntryAt(node, i);
      if (view.IsObject(child)) {
        if (view.Id(child) == exclude) continue;
        if (e_is_object && view.Id(child) == view.Id(e)) continue;
        if (judge_pair(child, false) == PairVerdict::kCount && ++count >= k) {
          return k;
        }
        continue;
      }
      const NodeRef child_node = view.Child(child);
      // The candidate's own subtree is covered by the self term.
      if (!e_is_object && child_node == view.Child(e)) continue;
      const PairVerdict verdict =
          judge_pair(child, OnCandidatePath(arena, cand, child_node));
      if (verdict == PairVerdict::kDrop) continue;  // nothing inside matters
      if (verdict == PairVerdict::kCount) {
        // Every object in this disjoint subtree clears the threshold.
        const bool overlaps_excl = exclude_path.count(child_node) > 0;
        count += view.Count(child) - (overlaps_excl ? 1 : 0);
        if (count >= k) return k;
        continue;
      }
      heap.push_back({bounds->mx, child_node});
      std::push_heap(heap.begin(), heap.end());
    }
  }
  return count;
}

template <typename View>
RstknnResult SearchProbe(const View& view, const Dataset& dataset,
                         const StScorer& scorer, const RstknnQuery& query,
                         const RstknnOptions& options) {
  using NodeRef = typename View::NodeRef;
  using EntryRef = typename View::EntryRef;
  RstknnResult result;
  const SearchObserver<View> observer(view, options, &result.stats);
  if (view.TreeSize() == 0 || query.k == 0) return result;

  // Candidates live in an index arena; the work queue orders them by a
  // static priority (upper-bound similarity to q, optionally biased by
  // cluster entropy under the TE policy).
  std::vector<Candidate<View>> arena;
  struct QueueItem {
    double priority;
    uint32_t cand;
    bool operator<(const QueueItem& other) const {
      return priority < other.priority;
    }
  };
  std::priority_queue<QueueItem> work;
  TextSummary qsum;
  std::unique_ptr<ProbeScratch> local_scratch;
  ProbeScratch::Impl* mem = nullptr;

  auto add_candidate = [&](EntryRef e, NodeRef home, uint32_t parent) {
    if (view.IsObject(e) && view.Id(e) == query.self) return;  // never a
                                                               // candidate
    Candidate<View> cand;
    cand.entry = e;
    cand.home = home;
    cand.parent = parent;
    if (view.IsObject(e)) {
      const StObject& obj = dataset.object(view.Id(e));
      cand.q_min = cand.q_max =
          scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
    } else {
      cand.contains_self = mem->self_path.count(view.Child(e)) > 0;
      std::tie(cand.q_min, cand.q_max) =
          QueryEntryBounds(view, scorer, query, AsSpan(qsum), e);
    }
    cand.priority = cand.q_max;
    if (options.expand == ExpandPolicy::kTextEntropy) {
      cand.priority += options.entropy_weight * ViewClusterEntropy(view, e);
    }
    ++result.stats.entries_created;
    work.push({cand.priority, static_cast<uint32_t>(arena.size())});
    arena.push_back(cand);
  };

  {
    const auto setup =
        observer.Phase(obs::Phase::kDescent, obs::names::kSpanSetup);
    qsum = TextSummary::FromDoc(*query.doc);
    mem = AcquireScratch(view, query, options, &local_scratch)->impl();
    const NodeRef root = view.Root();
    mem->charged.insert(root);
    view.Charge(root, observer);
    for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
      add_candidate(view.EntryAt(root, i), root, Candidate<View>::kNoParent);
    }
  }

  while (!work.empty()) {
    const uint32_t index = work.top().cand;
    work.pop();
    ++result.stats.pq_pops;
    // A copy: expanding below appends to the arena.
    const Candidate<View> cand = arena[index];
    const bool object = view.IsObject(cand.entry);
    const uint32_t decided =
        view.Count(cand.entry) - (cand.contains_self ? 1 : 0);

    // Prune test: at least k competitors are guaranteed to beat q for every
    // object of the candidate (MaxST(q,E) < kNNL(E)).
    mem->ResetForCandidate();
    size_t guaranteed = 0;
    {
      const auto probe =
          observer.Phase(obs::Phase::kBounds, obs::names::kSpanProbeGuaranteed,
                         SpanDeltas::kBoundsAndPops);
      guaranteed = CountCompetitors(view, scorer, observer, arena.data(),
                                    index, mem, cand.q_max, query.k,
                                    query.self, /*guaranteed=*/true);
    }
    if (guaranteed >= query.k) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      object ? obs::ExplainVerdict::kReportMiss
                             : obs::ExplainVerdict::kPrune,
                      object ? obs::ExplainBound::kExact
                             : obs::ExplainBound::kLowerBound,
                      decided);
      continue;
    }
    // For an object candidate the guaranteed probe descends every straddling
    // subtree to exact object-object scores, so its count is exact: fewer
    // than k competitors beat q ⇒ the object is an answer. No second probe.
    if (object) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kExact, 1);
      result.answers.push_back(view.Id(cand.entry));
      continue;
    }
    // Report test: fewer than k competitors can possibly beat q for any
    // object of the candidate (MinST(q,E) >= kNNU(E)).
    size_t potential = 0;
    {
      const auto probe =
          observer.Phase(obs::Phase::kBounds, obs::names::kSpanProbePotential,
                         SpanDeltas::kBoundsAndPops);
      potential = CountCompetitors(view, scorer, observer, arena.data(), index,
                                   mem, cand.q_min, query.k, query.self,
                                   /*guaranteed=*/false);
    }
    if (potential < query.k) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kUpperBound, decided);
      CollectObjectIds(view, cand.entry, query.self, &result.answers);
      continue;
    }
    // Undecided: objects are always decided by the exact guaranteed count
    // (bounds are tight at leaf level), so only nodes reach this point.
    RST_DCHECK(!object);
    const auto expand =
        observer.Phase(obs::Phase::kDescent, obs::names::kSpanExpand);
    const NodeRef child_node = view.Child(cand.entry);
    if (mem->charged.insert(child_node).second) {
      view.Charge(child_node, observer);
    }
    observer.Decide(cand.entry, cand.q_min, cand.q_max,
                    obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
    const size_t num_children = view.NumEntries(child_node);
    for (size_t i = 0; i < num_children; ++i) {
      add_candidate(view.EntryAt(child_node, i), child_node, index);
    }
    expand.AddCount(obs::names::kCountEntries, num_children);
  }

  {
    const auto finalize = observer.Phase(obs::Phase::kFinalize);
    std::sort(result.answers.begin(), result.answers.end());
  }
  return result;
}

/// Accumulated (min_st, max_st, count) contributions; the k-th guaranteed /
/// potential similarity is read off the sorted list (2011 paper, §5).
struct Contribution {
  double min_st;
  double max_st;
  uint32_t count;
};

inline double KthSorted(std::vector<Contribution>* contributions, size_t k,
                        bool lower) {
  std::sort(contributions->begin(), contributions->end(),
            [lower](const Contribution& a, const Contribution& b) {
              return lower ? a.min_st > b.min_st : a.max_st > b.max_st;
            });
  uint64_t cum = 0;
  for (const Contribution& c : *contributions) {
    cum += c.count;
    if (cum >= k) return lower ? c.min_st : c.max_st;
  }
  return -1.0;
}

template <typename View>
RstknnResult SearchContributionList(const View& view, const Dataset& dataset,
                                    const StScorer& scorer,
                                    const RstknnQuery& query,
                                    const RstknnOptions& options) {
  using NodeRef = typename View::NodeRef;
  using EntryRef = typename View::EntryRef;
  RstknnResult result;
  const SearchObserver<View> observer(view, options, &result.stats);
  if (view.TreeSize() == 0 || query.k == 0) return result;
  const double alpha = scorer.options().alpha;
  const TextSummary qsum = TextSummary::FromDoc(*query.doc);
  const SummarySpan qspan = AsSpan(qsum);
  std::unique_ptr<ProbeScratch> local_scratch;
  ProbeScratch::Impl* mem =
      AcquireScratch(view, query, options, &local_scratch)->impl();

  enum class State { kUndecided, kPruned, kReported };
  struct FlatEntry {
    EntryRef entry{};
    State state = State::kUndecided;
    bool alive = true;           // not yet replaced by its children
    bool contains_self = false;  // subtree holds the query object
    double q_min = 0.0;
    double q_max = 0.0;
  };
  std::vector<FlatEntry> entries;

  auto add_entry = [&](EntryRef e, State inherited) {
    FlatEntry fe;
    fe.entry = e;
    fe.state = inherited;
    if (view.IsObject(e)) {
      fe.contains_self = (view.Id(e) == query.self);
      if (fe.contains_self) {
        fe.state = State::kPruned;  // never a candidate nor a contributor
      } else {
        const StObject& obj = dataset.object(view.Id(e));
        fe.q_min = fe.q_max =
            scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
      }
    } else {
      fe.contains_self = mem->self_path.count(view.Child(e)) > 0;
      std::tie(fe.q_min, fe.q_max) =
          QueryEntryBounds(view, scorer, query, qspan, e);
    }
    ++result.stats.entries_created;
    entries.push_back(fe);
  };

  auto expand = [&](size_t idx) {
    const auto scope =
        observer.Phase(obs::Phase::kDescent, obs::names::kSpanExpand);
    FlatEntry& fe = entries[idx];
    const State inherited = fe.state;
    const NodeRef child_node = view.Child(fe.entry);
    if (mem->charged.insert(child_node).second) {
      view.Charge(child_node, observer);
    }
    fe.alive = false;
    observer.Decide(fe.entry, fe.q_min, fe.q_max, obs::ExplainVerdict::kExpand,
                    obs::ExplainBound::kNone, 0);
    const size_t num_children = view.NumEntries(child_node);
    for (size_t i = 0; i < num_children; ++i) {
      add_entry(view.EntryAt(child_node, i), inherited);
    }
    scope.AddCount(obs::names::kCountEntries, num_children);
  };

  // Pair bounds are pure functions of the two (immutable) entries, and each
  // pick recomputes its list against every live entry — memoizing across
  // picks turns the per-round cost from |live|² kernel evaluations into
  // lookups for every pair already seen.
  auto pair_bounds = [&](const FlatEntry& a, const FlatEntry& b) {
    auto [it, inserted] = mem->pair_bounds.try_emplace(
        uint64_t{view.EntryKey(a.entry)} << 32 | view.EntryKey(b.entry));
    if (inserted) {
      const TextBounds tb =
          ViewPairTextBounds(view, a.entry, b.entry, scorer.text());
      ++result.stats.bound_computations;
      const Rect& ra = view.RectOf(a.entry);
      const Rect& rb = view.RectOf(b.entry);
      it->second.mn = alpha * scorer.SpatialSim(MaxDistance(ra, rb)) +
                      (1.0 - alpha) * tb.min_sim;
      it->second.mx = alpha * scorer.SpatialSim(MinDistance(ra, rb)) +
                      (1.0 - alpha) * tb.max_sim;
    }
    return std::make_pair(it->second.mn, it->second.mx);
  };

  const NodeRef root = view.Root();
  mem->charged.insert(root);
  view.Charge(root, observer);
  for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
    add_entry(view.EntryAt(root, i), State::kUndecided);
  }
  // Foreign-scope contributors (sharded search): pre-decided entries that
  // compete in every contribution list but are never picked, reported, or
  // counted as answers here — their shard's own search decides them.
  view.ForEachContextEntry(
      [&](EntryRef e) { add_entry(e, State::kPruned); });

  auto capacity = [&](const FlatEntry& fe) -> uint32_t {
    const uint32_t n = view.Count(fe.entry);
    return fe.contains_self && n > 0 ? n - 1 : n;
  };

  while (true) {
    // Highest-priority undecided candidate.
    size_t pick = SIZE_MAX;
    double best_priority = -1.0;
    {
      const auto scope =
          observer.Phase(obs::Phase::kDescent, obs::names::kSpanPick);
      for (size_t i = 0; i < entries.size(); ++i) {
        const FlatEntry& fe = entries[i];
        if (!fe.alive || fe.state != State::kUndecided) continue;
        double priority = fe.q_max;
        if (options.expand == ExpandPolicy::kTextEntropy) {
          priority +=
              options.entropy_weight * ViewClusterEntropy(view, fe.entry);
        }
        if (pick == SIZE_MAX || priority > best_priority) {
          pick = i;
          best_priority = priority;
        }
      }
    }
    if (pick == SIZE_MAX) break;

    // Contribution list over all live entries.
    size_t best_blocker = SIZE_MAX;
    double knn_lower = 0.0;
    double knn_upper = 0.0;
    {
      const auto scope =
          observer.Phase(obs::Phase::kMerge, obs::names::kSpanContributions,
                         SpanDeltas::kBounds);
      std::vector<Contribution> contributions;
      contributions.reserve(entries.size());
      double best_blocker_score = -1.0;
      const FlatEntry& cand = entries[pick];
      for (size_t j = 0; j < entries.size(); ++j) {
        if (j == pick || !entries[j].alive) continue;
        const uint32_t cap = capacity(entries[j]);
        if (cap == 0) continue;
        const auto [mn, mx] = pair_bounds(cand, entries[j]);
        contributions.push_back({mn, mx, cap});
        if (!view.IsObject(entries[j].entry) && mx > best_blocker_score) {
          best_blocker_score = mx;
          best_blocker = j;
        }
      }
      const uint32_t self_cap = capacity(cand);
      if (self_cap > 1) {
        // Self pair: MinDistance(rect, rect) = 0, so mx already carries the
        // maximal spatial term; mn uses the rect diameter.
        const auto [mn, mx] = pair_bounds(cand, cand);
        contributions.push_back({mn, mx, self_cap - 1});
      }
      std::vector<Contribution> scratch = contributions;
      knn_lower = KthSorted(&scratch, query.k, /*lower=*/true);
      scratch = contributions;
      knn_upper = KthSorted(&scratch, query.k, /*lower=*/false);
    }

    FlatEntry& cand = entries[pick];
    if (cand.q_max < knn_lower) {
      cand.state = State::kPruned;
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      view.IsObject(cand.entry)
                          ? obs::ExplainVerdict::kReportMiss
                          : obs::ExplainVerdict::kPrune,
                      obs::ExplainBound::kLowerBound, capacity(cand));
      continue;
    }
    if (cand.q_min >= knn_upper) {
      cand.state = State::kReported;
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kUpperBound, capacity(cand));
      CollectObjectIds(view, cand.entry, query.self, &result.answers);
      continue;
    }
    if (!view.IsObject(cand.entry)) {
      expand(pick);
    } else {
      // Exact candidate blocked by a coarse contributor: refine the most
      // entangled live node. One exists, else bounds were exact and a
      // decision would have been forced.
      RST_DCHECK_NE(best_blocker, SIZE_MAX);
      expand(best_blocker);
    }
  }

  {
    const auto finalize = observer.Phase(obs::Phase::kFinalize);
    std::sort(result.answers.begin(), result.answers.end());
  }
  return result;
}

}  // namespace rstknn_internal
}  // namespace rst

#endif  // RST_RSTKNN_SEARCH_IMPL_H_
