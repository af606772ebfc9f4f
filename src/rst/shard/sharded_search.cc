#include "rst/shard/sharded_search.h"

#include <algorithm>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "rst/common/check.h"
#include "rst/exec/thread_pool.h"
#include "rst/obs/heatmap.h"
#include "rst/rstknn/search_impl.h"

namespace rst {
namespace shard {
namespace {

/// Packed 64-bit refs over the two-level forest. A real node/entry of shard s
/// is (s << 32) | index; the virtual root node (whose "entries" are the K
/// shards) is ~0; the virtual entry standing for the whole of shard s is
/// (1 << 63) | s. Real refs never set bit 63 (shard counts are far below
/// 2^31), so the encodings are disjoint and node refs stay unique; EntryKey is
/// the entry's explain id, dense over the forest — one ProbeScratch serves
/// the forest exactly as it serves a single tree.
constexpr uint64_t kVirtualRoot = ~0ull;
constexpr uint64_t kVirtualBit = 1ull << 63;

/// Tree view of the forest, scoped to one shard: Root() is the scope shard's
/// tree root (so the branch-and-bound decides only this shard's entries),
/// while ProbeRoot() is the virtual forest root (so competitor counting spans
/// every shard) and ForEachContextEntry() hands the contribution-list
/// algorithm one pre-decided virtual contributor per foreign shard. The
/// virtual entry of shard s behaves exactly like a node entry whose subtree
/// is the whole shard: rect = shard MBR, summary = the shard's root-entry
/// fold, count = shard size — all valid summary-contract brackets, so every
/// pruning rule of the engine applies unchanged.
struct ForestView {
  using NodeRef = uint64_t;
  using EntryRef = uint64_t;

  const ShardedIndex* index = nullptr;
  const std::vector<uint64_t>* entry_offsets = nullptr;
  size_t entry_key_space = 0;  ///< 1 + shards + entries over all shards
  uint32_t scope = 0;          ///< shard whose tree Root() names

  static uint64_t Pack(uint32_t s, uint32_t v) {
    return (static_cast<uint64_t>(s) << 32) | v;
  }
  static uint64_t VirtualEntry(uint32_t s) { return kVirtualBit | s; }
  static bool IsVirtual(uint64_t ref) { return (ref & kVirtualBit) != 0; }
  /// Shard of a *virtual* entry (low word) / of a *real* ref (high word).
  static uint32_t VShard(uint64_t ref) { return static_cast<uint32_t>(ref); }
  static uint32_t Shard(uint64_t ref) {
    return static_cast<uint32_t>(ref >> 32);
  }
  static uint32_t Idx(uint64_t ref) { return static_cast<uint32_t>(ref); }

  size_t TreeSize() const { return index->size(); }
  NodeRef Root() const {
    return Pack(scope, index->shard(scope).root());
  }
  size_t NumEntries(NodeRef n) const {
    if (n == kVirtualRoot) return index->num_shards();
    return index->shard(Shard(n)).EntryCount(Idx(n));
  }
  EntryRef EntryAt(NodeRef n, size_t i) const {
    if (n == kVirtualRoot) return VirtualEntry(static_cast<uint32_t>(i));
    const uint32_t s = Shard(n);
    return Pack(s,
                index->shard(s).EntryBegin(Idx(n)) + static_cast<uint32_t>(i));
  }
  bool IsObject(EntryRef e) const {
    return !IsVirtual(e) && index->shard(Shard(e)).IsObject(Idx(e));
  }
  ObjectId Id(EntryRef e) const {
    return index->shard(Shard(e)).ObjectIdOf(Idx(e));
  }
  NodeRef Child(EntryRef e) const {
    if (IsVirtual(e)) {
      const uint32_t s = VShard(e);
      return Pack(s, index->shard(s).root());
    }
    return Pack(Shard(e), index->shard(Shard(e)).Child(Idx(e)));
  }
  uint32_t Count(EntryRef e) const {
    if (IsVirtual(e)) {
      return static_cast<uint32_t>(index->shard(VShard(e)).size());
    }
    return index->shard(Shard(e)).Count(Idx(e));
  }
  const Rect& RectOf(EntryRef e) const {
    if (IsVirtual(e)) return index->shard_mbr(VShard(e));
    return index->shard(Shard(e)).EntryRect(Idx(e));
  }
  SummarySpan Summary(EntryRef e) const {
    if (IsVirtual(e)) return AsSpan(index->shard_summary(VShard(e)));
    return index->shard(Shard(e)).Summary(Idx(e));
  }
  size_t NumClusters(EntryRef e) const {
    // The virtual entry advertises no clusters: the blended shard summary is
    // a looser but valid bracket; the shard's own entries refine below it.
    if (IsVirtual(e)) return 0;
    return index->shard(Shard(e)).NumClusters(Idx(e));
  }
  SummarySpan ClusterSummary(EntryRef e, size_t i) const {
    return index->shard(Shard(e)).ClusterSummary(Idx(e),
                                                 static_cast<uint32_t>(i));
  }
  uint32_t ClusterCount(EntryRef e, size_t i) const {
    return index->shard(Shard(e)).ClusterCount(Idx(e),
                                               static_cast<uint32_t>(i));
  }

  /// Globally unique, deterministic explain ids, dense in
  /// [1, entry_key_space): 1..K are the virtual shard entries; shard s's
  /// entry e maps to K + offset[s] + e + 1.
  uint32_t EntryKey(EntryRef e) const {
    if (IsVirtual(e)) return VShard(e) + 1;
    return static_cast<uint32_t>(index->num_shards() +
                                 (*entry_offsets)[Shard(e)] + Idx(e) + 1);
  }
  /// The virtual shard entries sit at level 0 and every real entry one level
  /// below its in-shard level.
  uint32_t EntryLevel(EntryRef e) const {
    if (IsVirtual(e)) return 0;
    return index->shard(Shard(e)).EntryLevel(Idx(e)) + 1;
  }
  size_t EntryKeySpace() const { return entry_key_space; }

  /// Scope hooks: probes span the whole forest.
  NodeRef ProbeRoot() const { return kVirtualRoot; }
  void CollectSelfPath(ObjectId id, std::unordered_set<uint64_t>* path) const {
    // O(shard) instead of O(forest): descend only the owning shard's tree.
    path->insert(kVirtualRoot);
    const uint32_t s = index->shard_of(id);
    rstknn_internal::CollectPath(*this, Pack(s, index->shard(s).root()), id,
                                 path);
  }
  template <typename Fn>
  void ForEachContextEntry(Fn&& fn) const {
    const uint32_t k = static_cast<uint32_t>(index->num_shards());
    for (uint32_t s = 0; s < k; ++s) {
      if (s != scope) fn(VirtualEntry(s));
    }
  }

  void Charge(
      NodeRef n,
      const rstknn_internal::SearchObserver<ForestView>& observer) const {
    if (n == kVirtualRoot) return;  // resident shard directory, no I/O
    index->shard(Shard(n)).ChargeAccess(Idx(n), &observer.stats()->io);
  }
};

RstknnResult SearchOneShard(const ForestView& scoped, const Dataset& dataset,
                            const StScorer& scorer, const RstknnQuery& query,
                            const RstknnOptions& options) {
  return options.algorithm == RstknnAlgorithm::kContributionList
             ? rstknn_internal::SearchContributionList(scoped, dataset, scorer,
                                                       query, options)
             : rstknn_internal::SearchProbe(scoped, dataset, scorer, query,
                                            options);
}

}  // namespace

void ShardedStats::Publish() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter(obs::names::kShardPruned).Add(shards_pruned);
  registry.GetCounter(obs::names::kShardReported).Add(shards_reported);
  registry.GetCounter(obs::names::kShardSearched).Add(shards_searched);
}

ShardedStats& ShardedStats::Merge(const ShardedStats& other) {
  shards_pruned += other.shards_pruned;
  shards_reported += other.shards_reported;
  shards_searched += other.shards_searched;
  return *this;
}

ShardedSearcher::ShardedSearcher(const ShardedIndex* index,
                                 const Dataset* dataset,
                                 const StScorer* scorer)
    : index_(index), dataset_(dataset), scorer_(scorer) {
  entry_offsets_.resize(index->num_shards());
  uint64_t offset = 0;
  for (size_t s = 0; s < index->num_shards(); ++s) {
    entry_offsets_[s] = offset;
    offset += index->shard(s).num_entries();
  }
  entry_key_space_ = 1 + index->num_shards() + offset;
}

ShardedResult ShardedSearcher::Search(const RstknnQuery& query,
                                      const RstknnOptions& options,
                                      exec::ThreadPool* pool) const {
  RST_CHECK(options.explain == nullptr)
      << "EXPLAIN recorder not supported in sharded mode (per-shard searches "
         "would reset it); attach a heatmap instead";
  RST_CHECK(options.pool == nullptr)
      << "real-I/O buffer pools wrap a single tree's page store; unsupported "
         "in sharded mode";

  ShardedResult result;
  rstknn_internal::RunQuery(options, result.answers, result.stats, [&] {
    const size_t num_shards = index_->num_shards();
    if (num_shards == 0 || query.k == 0 || index_->size() == 0) return;
    const ForestView view{index_, &entry_offsets_, entry_key_space_, 0};
    std::unique_ptr<ProbeScratch> local_scratch;
    ProbeScratch* scratch =
        rstknn_internal::AcquireScratch(view, query, options, &local_scratch);
    ProbeScratch::Impl* mem = scratch->impl();
    const TextSummary qsum = TextSummary::FromDoc(*query.doc);
    const SummarySpan qspan = AsSpan(qsum);
    obs::HeatmapRecorder* heatmap = options.heatmap;

    // Triage: run every shard's virtual entry (explain id s + 1, level 0)
    // through the same guaranteed/potential competitor probes that decide node
    // entries inside a tree, counting competitors across the whole forest.
    // Each outcome is one observer decision, exactly like a node decision, so
    // the heatmap-counter reconciliation identities stay exact.
    const rstknn_internal::SearchObserver<ForestView> observer(view, options,
                                                               &result.stats);
    std::vector<uint32_t> to_search;
    for (uint32_t s = 0; s < num_shards; ++s) {
      // A one-candidate arena whose root path is the virtual root alone.
      rstknn_internal::Candidate<ForestView> cand;
      cand.entry = ForestView::VirtualEntry(s);
      cand.home = kVirtualRoot;
      cand.contains_self = query.self != IurTree::kNoObject &&
                           index_->shard_of(query.self) == s;
      std::tie(cand.q_min, cand.q_max) = rstknn_internal::QueryEntryBounds(
          view, *scorer_, query, qspan, cand.entry);
      ++result.stats.entries_created;
      const uint32_t cap =
          view.Count(cand.entry) - (cand.contains_self ? 1 : 0);
      mem->ResetForCandidate();
      const size_t guaranteed = rstknn_internal::CountCompetitors(
          view, *scorer_, observer, &cand, 0, mem, cand.q_max, query.k,
          query.self, /*guaranteed=*/true);
      if (guaranteed >= query.k) {
        ++result.shards.shards_pruned;
        observer.Decide(cand.entry, cand.q_min, cand.q_max,
                        obs::ExplainVerdict::kPrune,
                        obs::ExplainBound::kLowerBound, cap);
        continue;
      }
      const size_t potential = rstknn_internal::CountCompetitors(
          view, *scorer_, observer, &cand, 0, mem, cand.q_min, query.k,
          query.self, /*guaranteed=*/false);
      if (potential < query.k) {
        ++result.shards.shards_reported;
        observer.Decide(cand.entry, cand.q_min, cand.q_max,
                        obs::ExplainVerdict::kReportHit,
                        obs::ExplainBound::kUpperBound, cap);
        rstknn_internal::CollectObjectIds(view, cand.entry, query.self,
                                          &result.answers);
        continue;
      }
      ++result.shards.shards_searched;
      observer.Decide(cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone,
                      0);
      to_search.push_back(s);
    }

    // Scatter surviving shards, gather answers into index-keyed slots so the
    // merge order is the shard order at any thread count.
    std::vector<RstknnResult> shard_results(to_search.size());
    const bool parallel =
        pool != nullptr && pool->num_threads() > 1 && to_search.size() > 1;
    if (!parallel) {
      for (size_t i = 0; i < to_search.size(); ++i) {
        ForestView scoped = view;
        scoped.scope = to_search[i];
        RstknnOptions per = options;
        per.publish_metrics = false;
        per.trace = nullptr;
        per.scratch = scratch;
        shard_results[i] =
            SearchOneShard(scoped, *dataset_, *scorer_, query, per);
      }
    } else {
      const size_t workers = pool->num_threads();
      std::vector<std::unique_ptr<ProbeScratch>> worker_scratch(workers);
      std::vector<std::unique_ptr<obs::HeatmapRecorder>> worker_heatmaps(
          workers);
      for (size_t w = 0; w < workers; ++w) {
        worker_scratch[w] = std::make_unique<ProbeScratch>();
        if (heatmap != nullptr) {
          worker_heatmaps[w] = std::make_unique<obs::HeatmapRecorder>();
        }
      }
      pool->ParallelFor(to_search.size(), 1, [&](size_t i, size_t w) {
        ForestView scoped = view;
        scoped.scope = to_search[i];
        RstknnOptions per = options;
        per.publish_metrics = false;
        per.trace = nullptr;
        per.profiler = nullptr;
        per.scratch = worker_scratch[w].get();
        per.heatmap = heatmap != nullptr ? worker_heatmaps[w].get() : nullptr;
        shard_results[i] =
            SearchOneShard(scoped, *dataset_, *scorer_, query, per);
      });
      if (heatmap != nullptr) {
        for (size_t w = 0; w < workers; ++w) {
          heatmap->Merge(*worker_heatmaps[w]);
        }
      }
    }
    for (const RstknnResult& r : shard_results) {
      result.stats.Merge(r.stats);
      result.answers.insert(result.answers.end(), r.answers.begin(),
                             r.answers.end());
    }
    // Every object lives in exactly one shard, so the concatenation is
    // duplicate-free; one sort restores the global ascending contract.
    std::sort(result.answers.begin(), result.answers.end());
  });
  if (options.publish_metrics) result.shards.Publish();
  return result;
}

}  // namespace shard
}  // namespace rst
