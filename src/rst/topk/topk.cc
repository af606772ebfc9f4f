#include "rst/topk/topk.h"

#include <algorithm>
#include <queue>

#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"

namespace rst {

namespace {

struct QueueItem {
  double score;       // upper bound for nodes, exact for objects
  bool is_object;
  ObjectId id;        // object id, or arbitrary for nodes
  const IurTree::Node* node;  // nullptr for objects

  /// Max-heap by score; objects before nodes at equal score (their score is
  /// exact and can be emitted); then ascending id for determinism.
  bool operator<(const QueueItem& other) const {
    if (score != other.score) return score < other.score;
    if (is_object != other.is_object) return !is_object;
    return id > other.id;
  }
};

/// Cached registry handles — Search runs microseconds-hot (the precompute
/// baseline and the MaxBRSTkNN joint algorithm issue one per object/user),
/// so the per-query publishing cost must stay at a few relaxed atomic adds.
struct TopKMetrics {
  obs::Counter queries;
  obs::Counter pq_pops;
  obs::Counter expansions;
  obs::HistogramRef latency_ms;

  static const TopKMetrics& Get() {
    static const TopKMetrics* metrics = [] {
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      return new TopKMetrics{
          registry.GetCounter(obs::names::kTopkQueries),
          registry.GetCounter(obs::names::kTopkPqPops),
          registry.GetCounter(obs::names::kTopkExpansions),
          registry.GetHistogram(obs::names::kTopkQueryMs,
                                obs::HistogramSpec::LatencyMs())};
    }();
    return *metrics;
  }
};

}  // namespace

std::vector<TopKResult> TopKSearcher::Search(const TopKQuery& query,
                                             IoStats* stats,
                                             obs::QueryTrace* trace) const {
  std::vector<TopKResult> results;
  if (query.k == 0 || tree_->size() == 0) return results;
  Stopwatch timer;
  obs::TraceSpan search_span(trace, obs::names::kSpanTopkSearch);
  const TermSpan qdoc = AsSpan(*query.doc);
  const PreparedSummary qside = scorer_->text().Prepare({qdoc, qdoc, 1});
  const double alpha = scorer_->options().alpha;
  uint64_t pops = 0;
  uint64_t expansions = 0;

  std::priority_queue<QueueItem> pq;
  pq.push({1.0, false, 0, tree_->root()});
  while (!pq.empty() && results.size() < query.k) {
    const QueueItem item = pq.top();
    pq.pop();
    ++pops;
    if (item.is_object) {
      results.push_back({item.id, item.score});
      continue;
    }
    tree_->ChargeAccess(item.node, stats);
    ++expansions;
    for (const IurTree::Entry& e : item.node->entries) {
      if (e.is_object()) {
        if (e.id == query.exclude) continue;
        const StObject& obj = dataset_->object(e.id);
        const double score =
            scorer_->Score(obj.loc, obj.doc, query.loc, *query.doc);
        pq.push({score, true, e.id, nullptr});
      } else {
        const TextBounds tb = EntryTextBounds(e, qside, scorer_->text());
        const double upper =
            alpha * scorer_->SpatialSim(MinDistance(query.loc, e.rect)) +
            (1.0 - alpha) * tb.max_sim;
        pq.push({upper, false, 0, e.child});
      }
    }
  }
  const TopKMetrics& metrics = TopKMetrics::Get();
  metrics.queries.Increment();
  metrics.pq_pops.Add(pops);
  metrics.expansions.Add(expansions);
  metrics.latency_ms.Record(timer.ElapsedMillis());
  search_span.AddCount(obs::names::kCountPqPops, pops);
  search_span.AddCount(obs::names::kCountExpansions, expansions);
  return results;
}

std::vector<TopKResult> BruteForceTopK(const Dataset& dataset,
                                       const StScorer& scorer,
                                       const TopKQuery& query) {
  std::vector<TopKResult> all;
  all.reserve(dataset.size());
  for (const StObject& obj : dataset.objects()) {
    if (obj.id == query.exclude) continue;
    all.push_back(
        {obj.id, scorer.Score(obj.loc, obj.doc, query.loc, *query.doc)});
  }
  std::sort(all.begin(), all.end(), [](const TopKResult& a, const TopKResult& b) {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  });
  if (all.size() > query.k) all.resize(query.k);
  return all;
}

}  // namespace rst
