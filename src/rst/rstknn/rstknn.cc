#include "rst/rstknn/rstknn.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
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

/// Marks the nodes on the root-to-leaf path of object `id` (the nodes whose
/// subtrees hold it).
bool MarkSelfPath(const FrozenTree& tree, uint32_t node, ObjectId id,
                  std::vector<uint8_t>* marks) {
  const uint32_t begin = tree.EntryBegin(node);
  for (uint32_t e = begin; e < begin + tree.EntryCount(node); ++e) {
    if (tree.IsObject(e) ? tree.ObjectIdOf(e) == id
                         : MarkSelfPath(tree, tree.Child(e), id, marks)) {
      (*marks)[node] |= ProbeScratch::Impl::kOnSelfPath;
      return true;
    }
  }
  return false;
}

/// What both algorithms know of a search entry from its creation on.
struct SearchEntry {
  uint32_t entry = 0;
  bool contains_self = false;  ///< subtree holds the query object
  uint32_t objects = 0;        ///< its objects other than the query object
  double q_min = 0.0;          ///< MinST(q, E)
  double q_max = 0.0;          ///< MaxST(q, E)
  double priority = 0.0;       ///< q_max, plus the entropy bias under TE
};

/// One query's state shared by both algorithms, and the steps both take:
/// create a search entry, open a node, expand a node entry.
struct QueryContext {
  QueryContext(const FrozenTree& tree, const Dataset& dataset,
               const StScorer& scorer, const RstknnQuery& query,
               const RstknnOptions& options, const SearchObserver& observer)
      : tree(tree),
        dataset(dataset),
        scorer(scorer),
        query(query),
        options(options),
        observer(observer) {}

  const FrozenTree& tree;
  const Dataset& dataset;
  const StScorer& scorer;
  const RstknnQuery& query;
  const RstknnOptions& options;
  const SearchObserver& observer;
  TextSummary qsum;
  std::unique_ptr<ProbeScratch> local_scratch;
  ProbeScratch::Impl* mem = nullptr;

  /// Summarises the query and resets its working memory — the caller's
  /// scratch (its containers keep their capacity across a batch) or a fresh
  /// one — with the query object's root path marked.
  void Begin() {
    qsum = TextSummary::FromDoc(*query.doc);
    ProbeScratch* scratch = options.scratch;
    if (scratch == nullptr) {
      local_scratch = std::make_unique<ProbeScratch>();
      scratch = local_scratch.get();
    }
    mem = scratch->impl();
    mem->ResetForQuery(tree);
    if (query.self != IurTree::kNoObject) {
      MarkSelfPath(tree, tree.root(), query.self, &mem->node_marks);
    }
  }

  RstknnStats* stats() const { return observer.stats(); }

  /// The branch-and-bound keeps every opened node resident for the whole
  /// query (the contribution lists reference them), so each node costs its
  /// I/O once per query regardless of how many probes revisit it.
  void ChargeOnce(uint32_t node) const {
    if (mem->MarkCharged(node)) tree.ChargeAccess(node, &stats()->io);
  }

  /// A new search entry for tree entry `e`. A node entry's [MinST, MaxST] to
  /// q blends its spatial bounds to the query location with its
  /// cluster-aware text bounds to the query summary.
  SearchEntry MakeEntry(uint32_t e) const {
    SearchEntry se;
    se.entry = e;
    if (tree.IsObject(e)) {
      const ObjectId id = tree.ObjectIdOf(e);
      se.contains_self = id == query.self;
      if (!se.contains_self) {
        const StObject& obj = dataset.object(id);
        se.q_min = se.q_max =
            scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
      }
    } else {
      se.contains_self = mem->OnSelfPath(tree.Child(e));
      const double alpha = scorer.options().alpha;
      const TextBounds tb = SideTextBounds(tree, EntrySide(tree, e),
                                           SummarySide(AsSpan(qsum)),
                                           scorer.text());
      const Rect& rect = tree.EntryRect(e);
      se.q_min = alpha * scorer.SpatialSim(MaxDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.min_sim;
      se.q_max = alpha * scorer.SpatialSim(MinDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.max_sim;
    }
    se.objects = tree.Count(e) - (se.contains_self ? 1 : 0);
    se.priority = se.q_max;
    if (options.expand == ExpandPolicy::kTextEntropy) {
      se.priority += kEntropyWeight * EntryClusterEntropy(tree, e);
    }
    ++stats()->entries_created;
    return se;
  }

  /// Charges `node` once and hands each of its entries to `add`; returns how
  /// many it has.
  template <typename Add>
  uint32_t OpenNode(uint32_t node, Add&& add) const {
    ChargeOnce(node);
    const uint32_t begin = tree.EntryBegin(node);
    const uint32_t n = tree.EntryCount(node);
    for (uint32_t e = begin; e < begin + n; ++e) add(e);
    return n;
  }

  /// Records the expand verdict on node entry `se` and opens its child node.
  /// `se` is a copy: `add` may grow the container it came from.
  template <typename Add>
  void Expand(const SearchEntry se, Add&& add) const {
    const auto scope = observer.Time(Region::kExpand);
    observer.Decide(se.entry, se.q_min, se.q_max, obs::ExplainVerdict::kExpand,
                    obs::ExplainBound::kNone, 0);
    scope.AddEntries(OpenNode(tree.Child(se.entry), add));
  }
};

/// A candidate of the probe search. Candidates live in an index arena;
/// `home` and the `parent` links spell out the candidate's root path (the
/// nodes whose subtrees contain it), which the probes use to avoid
/// double-counting the candidate's own objects.
struct Candidate : SearchEntry {
  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

  uint32_t home = 0;            ///< the node holding `entry`
  uint32_t parent = kNoParent;  ///< arena index of the expanded candidate
                                ///< whose child node is `home`
};

/// True iff `node` lies on the root path of arena[index]: at most one link
/// per tree level.
bool OnCandidatePath(const Candidate* arena, uint32_t index, uint32_t node) {
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
/// The pair memo, the probe heap and the node marks live in the query's
/// scratch, so a probe does not allocate once the scratch has grown. Work
/// counters land in the query's stats.
size_t CountCompetitors(const QueryContext& ctx, const Candidate* arena,
                        uint32_t cand, double threshold, bool guaranteed) {
  const FrozenTree& tree = ctx.tree;
  const StScorer& scorer = ctx.scorer;
  ProbeScratch::Impl* mem = ctx.mem;
  RstknnStats* stats = ctx.stats();
  const size_t k = ctx.query.k;
  const ObjectId exclude = ctx.query.self;
  const uint32_t e = arena[cand].entry;
  const Rect& e_rect = tree.EntryRect(e);
  const bool e_is_object = tree.IsObject(e);
  const double alpha = scorer.options().alpha;
  ++stats->probes;

  size_t count = 0;
  // Self term: the candidate's own other objects compete among themselves.
  // The pair text bounds are threshold-independent, so the potential probe
  // reuses what the guaranteed probe computed.
  const uint32_t own = arena[cand].objects;
  if (own > 1) {
    if (!mem->self_tb_valid) {
      mem->self_tb = SideTextBounds(tree, EntrySide(tree, e),
                                    EntrySide(tree, e), scorer.text());
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
  const PairJudge judge(tree, scorer, e);
  CandPairBounds* bounds = nullptr;  // the slot judge_pair last decided
  auto judge_pair = [&](uint32_t other, bool overlaps_cand) {
    bool fresh = false;
    std::tie(bounds, fresh) = mem->cand_bounds.FindOrInsert(other);
    return judge.Judge(bounds, fresh, other, threshold, guaranteed,
                       overlaps_cand, stats);
  };

  std::vector<ProbeItem>& heap = mem->probe_heap;
  heap.clear();
  heap.push_back({1.0, tree.root()});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const ProbeItem item = heap.back();
    heap.pop_back();
    ++stats->pq_pops;
    if (item.max_st <= threshold) break;  // nothing left can matter
    ctx.ChargeOnce(item.node);
    const uint32_t begin = tree.EntryBegin(item.node);
    const uint32_t end = begin + tree.EntryCount(item.node);
    for (uint32_t child = begin; child < end; ++child) {
      if (tree.IsObject(child)) {
        const ObjectId id = tree.ObjectIdOf(child);
        if (id == exclude) continue;
        if (e_is_object && id == tree.ObjectIdOf(e)) continue;
        if (judge_pair(child, false) == PairVerdict::kCount && ++count >= k) {
          return k;
        }
        continue;
      }
      const uint32_t child_node = tree.Child(child);
      // The candidate's own subtree is covered by the self term.
      if (!e_is_object && child_node == tree.Child(e)) continue;
      const PairVerdict verdict =
          judge_pair(child, OnCandidatePath(arena, cand, child_node));
      if (verdict == PairVerdict::kDrop) continue;  // nothing inside matters
      if (verdict == PairVerdict::kCount) {
        // Every object in this disjoint subtree clears the threshold.
        count += tree.Count(child) - (mem->OnSelfPath(child_node) ? 1 : 0);
        if (count >= k) return k;
        continue;
      }
      heap.push_back({bounds->mx, child_node});
      std::push_heap(heap.begin(), heap.end());
    }
  }
  return count;
}

void SearchProbe(QueryContext& ctx, std::vector<ObjectId>* answers) {
  const FrozenTree& tree = ctx.tree;
  const RstknnQuery& query = ctx.query;
  const SearchObserver& observer = ctx.observer;

  // Candidates live in an index arena; the work queue orders them by their
  // static priority.
  std::vector<Candidate> arena;
  struct QueueItem {
    double priority;
    uint32_t cand;
    bool operator<(const QueueItem& other) const {
      return priority < other.priority;
    }
  };
  std::priority_queue<QueueItem> work;
  // Adds the entries of node `home`, the child node of arena[parent].
  auto add_candidates = [&](uint32_t home, uint32_t parent) {
    return [&, home, parent](uint32_t e) {
      // The query object is never a candidate.
      if (tree.IsObject(e) && tree.ObjectIdOf(e) == query.self) return;
      const Candidate cand{ctx.MakeEntry(e), home, parent};
      work.push({cand.priority, static_cast<uint32_t>(arena.size())});
      arena.push_back(cand);
    };
  };

  {
    const auto setup = observer.Time(Region::kSetup);
    ctx.Begin();
    const uint32_t root = tree.root();
    ctx.OpenNode(root, add_candidates(root, Candidate::kNoParent));
  }

  while (!work.empty()) {
    const uint32_t index = work.top().cand;
    work.pop();
    ++ctx.stats()->pq_pops;
    // A copy: expanding below appends to the arena.
    const Candidate cand = arena[index];
    const bool object = tree.IsObject(cand.entry);

    // Prune test: at least k competitors are guaranteed to beat q for every
    // object of the candidate (MaxST(q,E) < kNNL(E)).
    ctx.mem->ResetForCandidate();
    size_t guaranteed = 0;
    {
      const auto probe = observer.Time(Region::kProbeGuaranteed);
      guaranteed = CountCompetitors(ctx, arena.data(), index, cand.q_max,
                                    /*guaranteed=*/true);
    }
    if (guaranteed >= query.k) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      object ? obs::ExplainVerdict::kReportMiss
                             : obs::ExplainVerdict::kPrune,
                      object ? obs::ExplainBound::kExact
                             : obs::ExplainBound::kLowerBound,
                      cand.objects);
      continue;
    }
    // For an object candidate the guaranteed probe descends every straddling
    // subtree to exact object-object scores, so its count is exact: fewer
    // than k competitors beat q ⇒ the object is an answer. No second probe.
    if (object) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kExact, 1);
      answers->push_back(tree.ObjectIdOf(cand.entry));
      continue;
    }
    // Report test: fewer than k competitors can possibly beat q for any
    // object of the candidate (MinST(q,E) >= kNNU(E)).
    size_t potential = 0;
    {
      const auto probe = observer.Time(Region::kProbePotential);
      potential = CountCompetitors(ctx, arena.data(), index, cand.q_min,
                                   /*guaranteed=*/false);
    }
    if (potential < query.k) {
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kUpperBound, cand.objects);
      CollectObjectIds(tree, cand.entry, query.self, answers);
      continue;
    }
    // Undecided: objects are always decided by the exact guaranteed count
    // (bounds are tight at leaf level), so only nodes reach this point.
    ctx.Expand(cand, add_candidates(tree.Child(cand.entry), index));
  }
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

void SearchContributionList(QueryContext& ctx, std::vector<ObjectId>* answers) {
  const FrozenTree& tree = ctx.tree;
  const StScorer& scorer = ctx.scorer;
  const RstknnQuery& query = ctx.query;
  const SearchObserver& observer = ctx.observer;
  const double alpha = scorer.options().alpha;
  ctx.Begin();
  ProbeScratch::Impl* mem = ctx.mem;

  enum class State { kUndecided, kPruned, kReported };
  struct FlatEntry : SearchEntry {
    State state = State::kUndecided;
    bool alive = true;  // not yet replaced by its children
  };
  std::vector<FlatEntry> entries;
  // Adds entries that inherit `inherited` from the entry they replace.
  auto add_entries = [&](State inherited) {
    return [&, inherited](uint32_t e) {
      FlatEntry fe{ctx.MakeEntry(e), inherited};
      // The query object is never a candidate nor a contributor.
      if (fe.contains_self && tree.IsObject(e)) fe.state = State::kPruned;
      entries.push_back(fe);
    };
  };
  auto expand = [&](size_t idx) {
    entries[idx].alive = false;
    ctx.Expand(entries[idx], add_entries(entries[idx].state));
  };

  // Pair bounds are pure functions of the two (immutable) entries, and each
  // pick recomputes its list against every live entry — memoizing across
  // picks turns the per-round cost from |live|² kernel evaluations into
  // lookups for every pair already seen.
  auto pair_bounds = [&](const FlatEntry& a, const FlatEntry& b) {
    auto [it, inserted] =
        mem->pair_bounds.try_emplace(uint64_t{a.entry} << 32 | b.entry);
    if (inserted) {
      const TextBounds tb =
          SideTextBounds(tree, EntrySide(tree, a.entry),
                         EntrySide(tree, b.entry), scorer.text());
      ++ctx.stats()->bound_computations;
      const Rect& ra = tree.EntryRect(a.entry);
      const Rect& rb = tree.EntryRect(b.entry);
      it->second.mn = alpha * scorer.SpatialSim(MaxDistance(ra, rb)) +
                      (1.0 - alpha) * tb.min_sim;
      it->second.mx = alpha * scorer.SpatialSim(MinDistance(ra, rb)) +
                      (1.0 - alpha) * tb.max_sim;
    }
    return std::make_pair(it->second.mn, it->second.mx);
  };

  ctx.OpenNode(tree.root(), add_entries(State::kUndecided));

  while (true) {
    // Highest-priority undecided candidate.
    size_t pick = SIZE_MAX;
    double best_priority = -1.0;
    {
      const auto scope = observer.Time(Region::kPick);
      for (size_t i = 0; i < entries.size(); ++i) {
        const FlatEntry& fe = entries[i];
        if (!fe.alive || fe.state != State::kUndecided) continue;
        if (pick == SIZE_MAX || fe.priority > best_priority) {
          pick = i;
          best_priority = fe.priority;
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
        const uint32_t cap = entries[j].objects;
        if (cap == 0) continue;
        const auto [mn, mx] = pair_bounds(cand, entries[j]);
        contributions.push_back({mn, mx, cap});
        if (!tree.IsObject(entries[j].entry) && mx > best_blocker_score) {
          best_blocker_score = mx;
          best_blocker = j;
        }
      }
      if (cand.objects > 1) {
        // Self pair: MinDistance(rect, rect) = 0, so mx already carries the
        // maximal spatial term; mn uses the rect diameter.
        const auto [mn, mx] = pair_bounds(cand, cand);
        contributions.push_back({mn, mx, cand.objects - 1});
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
                      tree.IsObject(cand.entry)
                          ? obs::ExplainVerdict::kReportMiss
                          : obs::ExplainVerdict::kPrune,
                      obs::ExplainBound::kLowerBound, cand.objects);
      continue;
    }
    if (cand.q_min >= knn_upper) {
      cand.state = State::kReported;
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kUpperBound, cand.objects);
      CollectObjectIds(tree, cand.entry, query.self, answers);
      continue;
    }
    if (!tree.IsObject(cand.entry)) {
      expand(pick);
    } else {
      // Exact candidate blocked by a coarse contributor: refine the most
      // entangled live node. One exists, else bounds were exact and a
      // decision would have been forced.
      RST_DCHECK_NE(best_blocker, SIZE_MAX);
      expand(best_blocker);
    }
  }
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
    // Destroyed before `span` closes: it adds its regions as child spans.
    const rstknn_internal::SearchObserver observer(*tree_, options,
                                                   &result.stats);
    if (tree_->size() > 0 && query.k > 0) {
      rstknn_internal::QueryContext ctx(*tree_, *dataset_, *scorer_, query,
                                        options, observer);
      if (cl) {
        rstknn_internal::SearchContributionList(ctx, &result.answers);
      } else {
        rstknn_internal::SearchProbe(ctx, &result.answers);
      }
      const auto finalize =
          observer.Time(rstknn_internal::Region::kFinalize);
      std::sort(result.answers.begin(), result.answers.end());
    }
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
