#include "rst/rstknn/rstknn.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rst/common/check.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/explain.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/search_impl.h"
#include "rst/storage/node_size.h"

namespace rst {

ProbeScratch::ProbeScratch() : impl_(std::make_unique<Impl>()) {}
ProbeScratch::~ProbeScratch() = default;

void RstknnStats::Publish(const std::string& prefix) const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter(prefix + obs::names::kSuffixEntriesCreated).Add(entries_created);
  registry.GetCounter(prefix + obs::names::kSuffixExpansions).Add(expansions);
  registry.GetCounter(prefix + obs::names::kSuffixPrunedEntries).Add(pruned_entries);
  registry.GetCounter(prefix + obs::names::kSuffixReportedEntries).Add(reported_entries);
  registry.GetCounter(prefix + obs::names::kSuffixBoundComputations).Add(bound_computations);
  registry.GetCounter(prefix + obs::names::kSuffixProbes).Add(probes);
  registry.GetCounter(prefix + obs::names::kSuffixPqPops).Add(pq_pops);
  io.Publish(prefix + obs::names::kSuffixIo);
}

RstknnStats& RstknnStats::Merge(const RstknnStats& other) {
  io += other.io;
  entries_created += other.entries_created;
  expansions += other.expansions;
  pruned_entries += other.pruned_entries;
  reported_entries += other.reported_entries;
  bound_computations += other.bound_computations;
  probes += other.probes;
  pq_pops += other.pq_pops;
  return *this;
}

namespace rstknn_internal {
namespace {

using NodeRef = FrozenTreeView::NodeRef;
using EntryRef = FrozenTreeView::EntryRef;

/// Cluster-aware text bounds between an entry and a summary (see
/// ViewPairTextBounds).
TextBounds ViewEntryTextBounds(const FrozenTreeView& view, EntryRef e,
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

/// Collects the node set on the root-to-leaf path of object `id`.
bool CollectPath(const FrozenTreeView& view, NodeRef node, ObjectId id,
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

/// A query's working memory — the caller's scratch (its containers keep
/// their capacity across a batch) or a fresh one held in `local` — reset for
/// `view`, with the query object's root path collected.
ProbeScratch* AcquireScratch(const FrozenTreeView& view,
                             const RstknnQuery& query,
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
    CollectPath(view, view.Root(), query.self, &mem->self_path);
  }
  return scratch;
}

/// [MinST(q, E), MaxST(q, E)] of a node entry E: its spatial bounds to the
/// query location blended with its (cluster-aware) text bounds to `qspan`.
std::pair<double, double> QueryEntryBounds(const FrozenTreeView& view,
                                           const StScorer& scorer,
                                           const RstknnQuery& query,
                                           const SummarySpan& qspan,
                                           EntryRef e) {
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
struct Candidate {
  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

  EntryRef entry{};
  NodeRef home{};                 ///< the node holding `entry`
  uint32_t parent = kNoParent;    ///< arena index of the expanded candidate
                                  ///< whose child node is `home`
  bool contains_self = false;     ///< subtree holds the query object
  double q_min = 0.0;             ///< MinST(q, E)
  double q_max = 0.0;             ///< MaxST(q, E)
  double priority = 0.0;
};

/// True iff `node` lies on the root path of arena[index]: at most one link
/// per tree level.
bool OnCandidatePath(const Candidate* arena, uint32_t index, NodeRef node) {
  for (;;) {
    const Candidate& c = arena[index];
    if (c.home == node) return true;
    if (c.parent == Candidate::kNoParent) return false;
    index = c.parent;
  }
}

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
/// The pair memo and the probe heap live in `mem`, so a probe allocates only
/// to record a newly opened node. Work counters land in `observer`'s stats.
size_t CountCompetitors(const FrozenTreeView& view, const StScorer& scorer,
                        const SearchObserver& observer,
                        const Candidate* arena, uint32_t cand,
                        ProbeScratch::Impl* mem, double threshold, size_t k,
                        ObjectId exclude, bool guaranteed) {
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
    if (mem->charged.insert(node).second) view.Charge(node, stats);
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
  const PairJudge judge(view, scorer, e);
  CandPairBounds* bounds = nullptr;  // the slot judge_pair last decided
  auto judge_pair = [&](EntryRef other, bool overlaps_cand) {
    bool fresh = false;
    std::tie(bounds, fresh) =
        mem->cand_bounds.FindOrInsert(view.EntryKey(other));
    return judge.Judge(bounds, fresh, other, threshold, guaranteed,
                       overlaps_cand, stats);
  };

  std::vector<ProbeItem>& heap = mem->probe_heap;
  heap.clear();
  heap.push_back({1.0, view.Root()});
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

RstknnResult SearchProbe(const FrozenTreeView& view, const Dataset& dataset,
                         const StScorer& scorer, const RstknnQuery& query,
                         const RstknnOptions& options) {
  RstknnResult result;
  const SearchObserver observer(view, options, &result.stats);
  if (view.TreeSize() == 0 || query.k == 0) return result;

  // Candidates live in an index arena; the work queue orders them by a
  // static priority (upper-bound similarity to q, optionally biased by
  // cluster entropy under the TE policy).
  std::vector<Candidate> arena;
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
    Candidate cand;
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
    const auto setup = observer.Time(Region::kSetup);
    qsum = TextSummary::FromDoc(*query.doc);
    mem = AcquireScratch(view, query, options, &local_scratch)->impl();
    const NodeRef root = view.Root();
    mem->charged.insert(root);
    view.Charge(root, &result.stats);
    for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
      add_candidate(view.EntryAt(root, i), root, Candidate::kNoParent);
    }
  }

  while (!work.empty()) {
    const uint32_t index = work.top().cand;
    work.pop();
    ++result.stats.pq_pops;
    // A copy: expanding below appends to the arena.
    const Candidate cand = arena[index];
    const bool object = view.IsObject(cand.entry);
    const uint32_t decided =
        view.Count(cand.entry) - (cand.contains_self ? 1 : 0);

    // Prune test: at least k competitors are guaranteed to beat q for every
    // object of the candidate (MaxST(q,E) < kNNL(E)).
    mem->ResetForCandidate();
    size_t guaranteed = 0;
    {
      const auto probe = observer.Time(Region::kProbeGuaranteed);
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
      const auto probe = observer.Time(Region::kProbePotential);
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
    const auto expand = observer.Time(Region::kExpand);
    const NodeRef child_node = view.Child(cand.entry);
    if (mem->charged.insert(child_node).second) {
      view.Charge(child_node, &result.stats);
    }
    observer.Decide(cand.entry, cand.q_min, cand.q_max,
                    obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
    const size_t num_children = view.NumEntries(child_node);
    for (size_t i = 0; i < num_children; ++i) {
      add_candidate(view.EntryAt(child_node, i), child_node, index);
    }
    expand.AddEntries(num_children);
  }

  {
    const auto finalize = observer.Time(Region::kFinalize);
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

RstknnResult SearchContributionList(const FrozenTreeView& view,
                                    const Dataset& dataset,
                                    const StScorer& scorer,
                                    const RstknnQuery& query,
                                    const RstknnOptions& options) {
  RstknnResult result;
  const SearchObserver observer(view, options, &result.stats);
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
    const auto scope = observer.Time(Region::kExpand);
    FlatEntry& fe = entries[idx];
    const State inherited = fe.state;
    const NodeRef child_node = view.Child(fe.entry);
    if (mem->charged.insert(child_node).second) {
      view.Charge(child_node, &result.stats);
    }
    fe.alive = false;
    observer.Decide(fe.entry, fe.q_min, fe.q_max, obs::ExplainVerdict::kExpand,
                    obs::ExplainBound::kNone, 0);
    const size_t num_children = view.NumEntries(child_node);
    for (size_t i = 0; i < num_children; ++i) {
      add_entry(view.EntryAt(child_node, i), inherited);
    }
    scope.AddEntries(num_children);
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
  view.Charge(root, &result.stats);
  for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
    add_entry(view.EntryAt(root, i), State::kUndecided);
  }

  auto capacity = [&](const FlatEntry& fe) -> uint32_t {
    const uint32_t n = view.Count(fe.entry);
    return fe.contains_self && n > 0 ? n - 1 : n;
  };

  while (true) {
    // Highest-priority undecided candidate.
    size_t pick = SIZE_MAX;
    double best_priority = -1.0;
    {
      const auto scope = observer.Time(Region::kPick);
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
      const auto scope = observer.Time(Region::kContributions);
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
    const auto finalize = observer.Time(Region::kFinalize);
    std::sort(result.answers.begin(), result.answers.end());
  }
  return result;
}

}  // namespace
}  // namespace rstknn_internal

RstknnResult RstknnSearcher::Search(const RstknnQuery& query,
                                    const RstknnOptions& options) const {
  // Handles are cached so the per-query registry cost is two atomic adds
  // and one histogram record.
  struct QueryMetrics {
    obs::Counter queries;
    obs::Counter answers;
    obs::HistogramRef latency_ms;
  };
  static const QueryMetrics metrics = [] {
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    return QueryMetrics{registry.GetCounter(obs::names::kRstknnQueries),
                        registry.GetCounter(obs::names::kRstknnAnswers),
                        registry.GetHistogram(obs::names::kRstknnQueryMs,
                                              obs::HistogramSpec::LatencyMs())};
  }();

  Stopwatch timer;
  // Per-query phase attribution: the profiler's window is exactly one
  // query, so its per-phase totals are per-query samples and their sum is
  // bounded by this query's wall time.
  if (options.profiler != nullptr) options.profiler->Reset();
  RstknnResult result;
  {
    const bool cl = options.algorithm == RstknnAlgorithm::kContributionList;
    obs::TraceSpan span(options.trace,
                        cl ? obs::names::kSpanRstknnContributionList
                           : obs::names::kSpanRstknnProbe);
    const rstknn_internal::FrozenTreeView view{tree_};
    result = cl ? rstknn_internal::SearchContributionList(view, *dataset_,
                                                          *scorer_, query,
                                                          options)
                : rstknn_internal::SearchProbe(view, *dataset_, *scorer_,
                                               query, options);
  }
  // Phase histograms are per-query by nature, so they publish even when the
  // aggregate-publish path (publish_metrics == false) suppresses the per-
  // query counter traffic; Record() is lock-free either way.
  if (options.profiler != nullptr) options.profiler->Publish();
  if (options.publish_metrics) {
    metrics.queries.Increment();
    metrics.answers.Add(result.answers.size());
    metrics.latency_ms.Record(timer.ElapsedMillis());
    result.stats.Publish(obs::names::kRstknnPrefix);
  }
  return result;
}

std::vector<ObjectId> BruteForceRstknn(const Dataset& dataset,
                                       const StScorer& scorer,
                                       const RstknnQuery& query) {
  std::vector<ObjectId> answers;
  for (const StObject& o : dataset.objects()) {
    if (o.id == query.self) continue;
    const double sim_q = scorer.Score(o.loc, o.doc, query.loc, *query.doc);
    size_t strictly_better = 0;
    for (const StObject& other : dataset.objects()) {
      if (other.id == o.id || other.id == query.self) continue;
      const double sim = scorer.Score(o.loc, o.doc, other.loc, other.doc);
      if (sim > sim_q && ++strictly_better >= query.k) break;
    }
    if (strictly_better < query.k) answers.push_back(o.id);
  }
  return answers;
}

void PrecomputeBaseline::Build(size_t k, IoStats* stats,
                               obs::QueryTrace* trace) {
  RST_CHECK_GT(k, 0u) << "PrecomputeBaseline::Build needs k > 0";
  Stopwatch timer;
  obs::TraceSpan build_span(trace, obs::names::kSpanBaselineBuild);
  k_ = k;
  kth_score_.assign(dataset_->size(), -1.0);
  tops_.assign(dataset_->size(), {});
  TopKSearcher searcher(tree_, dataset_, scorer_);
  for (const StObject& o : dataset_->objects()) {
    TopKQuery q;
    q.loc = o.loc;
    q.doc = &o.doc;
    q.k = k + 1;  // one spare so a query object can be discounted later
    q.exclude = o.id;
    tops_[o.id] = searcher.Search(q, stats);
    if (tops_[o.id].size() >= k) kth_score_[o.id] = tops_[o.id][k - 1].score;
  }
  object_scan_bytes_ = 0;
  for (const StObject& o : dataset_->objects()) {
    object_scan_bytes_ += TermVectorEncodedSize(o.doc) + 2 * sizeof(double);
  }
  build_span.AddCount(obs::names::kCountObjects, dataset_->size());
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter(obs::names::kBaselineBuilds).Increment();
  registry.GetGauge(obs::names::kBaselineBuildMs).Set(timer.ElapsedMillis());
  if (stats != nullptr) stats->Publish(obs::names::kBaselineBuildIoPrefix);
}

RstknnResult PrecomputeBaseline::Query(const RstknnQuery& query,
                                       obs::QueryTrace* trace) const {
  RST_CHECK(built() && query.k == k_)
      << "PrecomputeBaseline::Query before Build, or with a different k";
  Stopwatch timer;
  RstknnResult result;
  obs::TraceSpan scan_span(trace, obs::names::kSpanBaselineScan);
  // The scan touches every object page once.
  result.stats.io.AddPayloadRead(object_scan_bytes_);
  for (const StObject& o : dataset_->objects()) {
    if (o.id == query.self) continue;
    const double sim_q = scorer_->Score(o.loc, o.doc, query.loc, *query.doc);
    // k-th best competitor of o, discounting the query object if it happens
    // to sit in o's precomputed top list.
    double threshold = kth_score_[o.id];
    if (query.self != IurTree::kNoObject) {
      const auto& top = tops_[o.id];
      // Discount only when the query object occupies one of the top-k slots;
      // at position k it is already outside the threshold window.
      bool contains_self = false;
      for (size_t i = 0; i < top.size() && i < k_; ++i) {
        if (top[i].id == query.self) {
          contains_self = true;
          break;
        }
      }
      if (contains_self) {
        threshold = top.size() >= k_ + 1 ? top[k_].score : -1.0;
      }
    }
    if (threshold < 0.0 || sim_q >= threshold) result.answers.push_back(o.id);
  }
  scan_span.AddCount(obs::names::kCountObjectsScanned, dataset_->size());
  static const obs::Counter queries =
      obs::MetricRegistry::Global().GetCounter(obs::names::kBaselineQueries);
  static const obs::HistogramRef latency_ms =
      obs::MetricRegistry::Global().GetHistogram(
          obs::names::kBaselineQueryMs, obs::HistogramSpec::LatencyMs());
  queries.Increment();
  latency_ms.Record(timer.ElapsedMillis());
  result.stats.Publish(obs::names::kBaselinePrefix);
  return result;
}

}  // namespace rst
