#include "rst/rstknn/rstknn.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "rst/common/check.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/search_impl.h"

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

RstknnResult RstknnSearcher::Search(const RstknnQuery& query,
                                    const RstknnOptions& options) const {
  using rstknn_internal::FrozenTreeView;
  using rstknn_internal::SearchContributionList;
  using rstknn_internal::SearchProbe;

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
  RstknnResult result;
  // Per-query phase attribution: the profiler's window is exactly one
  // Search(), so its per-phase totals are per-query samples and their sum is
  // bounded by this query's wall time.
  if (options.profiler != nullptr) options.profiler->Reset();
  {
    obs::TraceSpan span(options.trace,
                        options.algorithm == RstknnAlgorithm::kContributionList
                            ? obs::names::kSpanRstknnContributionList
                            : obs::names::kSpanRstknnProbe);
    const FrozenTreeView view{tree_};
    result = options.algorithm == RstknnAlgorithm::kContributionList
                 ? SearchContributionList(view, *dataset_, *scorer_, query,
                                          options)
                 : SearchProbe(view, *dataset_, *scorer_, query, options);
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
