#include "rst/maxbrst/joint_topk.h"

#include "rst/common/check.h"

#include <algorithm>
#include <queue>

#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

SuperUser SuperUser::FromUsers(const std::vector<StUser>& users) {
  SuperUser su;
  for (const StUser& u : users) {
    su.mbr.Extend(u.loc);
    su.keywords =
        TextSummary::Merge(su.keywords, TextSummary::FromDoc(u.keywords));
  }
  return su;
}

namespace {

/// Inserts `candidate` into `list` (sorted score desc, id asc, capacity k),
/// exactly reproducing BruteForceTopK ordering. Returns true if inserted.
bool InsertTopK(std::vector<TopKResult>* list, size_t k, TopKResult candidate) {
  auto better = [](const TopKResult& a, const TopKResult& b) {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  };
  if (list->size() == k) {
    if (!better(candidate, list->back())) return false;
    list->pop_back();
  }
  list->insert(std::upper_bound(list->begin(), list->end(), candidate, better),
               candidate);
  return true;
}

struct TraversalItem {
  double lb;
  double ub;
  bool is_object;
  ObjectId id;
  const IurTree::Node* node;

  /// Max-heap by lower bound; objects first on ties, then ascending id.
  bool operator<(const TraversalItem& other) const {
    if (lb != other.lb) return lb < other.lb;
    if (is_object != other.is_object) return !is_object;
    return id > other.id;
  }
};

}  // namespace

JointTraversal JointTopKProcessor::Traverse(const SuperUser& super_user,
                                            size_t k, IoStats* stats) const {
  JointTraversal out;
  if (k == 0 || tree_->size() == 0) return out;

  const double alpha = scorer_->options().alpha;
  const PreparedSummary su_side =
      scorer_->text().Prepare(AsSpan(super_user.keywords));
  auto entry_bounds = [&](const IurTree::Entry& e) -> std::pair<double, double> {
    ++out.bound_evaluations;
    const TextBounds tb = EntryTextBounds(e, su_side, scorer_->text());
    const double lb =
        alpha * scorer_->SpatialSim(MaxDistance(e.rect, super_user.mbr)) +
        (1.0 - alpha) * tb.min_sim;
    const double ub =
        alpha * scorer_->SpatialSim(MinDistance(e.rect, super_user.mbr)) +
        (1.0 - alpha) * tb.max_sim;
    return {lb, ub};
  };

  // LO: the k objects with the best lower bounds seen so far (min-heap on
  // (lb, id)); RS_k(u_s) is its weakest member once full.
  struct LoItem {
    double lb;
    double ub;
    ObjectId id;
    bool operator>(const LoItem& other) const {
      if (lb != other.lb) return lb > other.lb;
      return id < other.id;
    }
  };
  std::priority_queue<LoItem, std::vector<LoItem>, std::greater<>> lo;
  double rsk = -1.0;

  std::priority_queue<TraversalItem> pq;
  pq.push({0.0, 1.0, false, 0, tree_->root()});

  while (!pq.empty()) {
    const TraversalItem item = pq.top();
    pq.pop();
    if (item.is_object) {
      if (lo.size() < k) {
        lo.push({item.lb, item.ub, item.id});
        if (lo.size() == k) rsk = lo.top().lb;
      } else if (item.ub >= rsk) {
        if (item.lb > lo.top().lb) {
          const LoItem displaced = lo.top();
          lo.pop();
          lo.push({item.lb, item.ub, item.id});
          rsk = lo.top().lb;
          if (displaced.ub >= rsk) {
            out.ro.push_back({displaced.id, displaced.ub});
          }
        } else {
          out.ro.push_back({item.id, item.ub});
        }
      }
      continue;
    }
    // Node: prune when it cannot contain any user's top-k object.
    if (lo.size() == k && item.ub < rsk) continue;
    tree_->ChargeAccess(item.node, stats);
    for (const IurTree::Entry& e : item.node->entries) {
      const auto [lb, ub] = entry_bounds(e);
      if (lo.size() == k && ub < rsk) continue;  // prune before enqueueing
      if (e.is_object()) {
        pq.push({lb, ub, true, e.id, nullptr});
      } else {
        pq.push({lb, ub, false, 0, e.child});
      }
    }
  }

  out.rsk_super = rsk;
  while (!lo.empty()) {
    out.lo.push_back(lo.top().id);
    lo.pop();
  }
  std::sort(out.lo.begin(), out.lo.end());
  std::sort(out.ro.begin(), out.ro.end(),
            [](const TopKResult& a, const TopKResult& b) {
              return a.score > b.score || (a.score == b.score && a.id < b.id);
            });
  return out;
}

void JointTopKProcessor::IndividualTopK(const std::vector<StUser>& users,
                                        const JointTraversal& traversal,
                                        size_t k,
                                        JointTopKResult* result) const {
  const TextSimilarity& text = scorer_->text();
  const bool sum = text.measure() == TextMeasure::kSum;

  // Group keyword table: the union of the users' keywords, ascending. Each
  // user keeps its keywords as table slots in its own (ascending) term
  // order, their weights (1 for kSum, whose user weights are ignored) and
  // its norm, so a score sums the same products in the same order as Sim.
  std::vector<TermId> keys;
  for (const StUser& user : users) {
    for (const TermWeight& e : user.keywords.entries()) keys.push_back(e.term);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t width = keys.size();
  std::vector<uint32_t> slots;
  std::vector<float> user_weights;
  std::vector<size_t> user_begin;
  std::vector<double> user_norm;
  for (const StUser& user : users) {
    user_begin.push_back(slots.size());
    for (const TermWeight& e : user.keywords.entries()) {
      slots.push_back(static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), e.term) - keys.begin()));
      user_weights.push_back(sum ? 1.0f : e.weight);
    }
    user_norm.push_back(text.UserNorm(user.keywords));
  }
  user_begin.push_back(slots.size());

  // Candidate rows in scan order (LO, then RO), filled lazily up to the
  // deepest prefix any user reaches: location, |o|² and the candidate's
  // weights at the table's slots (0 where it lacks the keyword).
  const std::vector<ObjectId>& lo = traversal.lo;
  const std::vector<TopKResult>& ro = traversal.ro;
  auto candidate = [&](size_t j) {
    return j < lo.size() ? lo[j] : ro[j - lo.size()].id;
  };
  std::vector<Point> row_loc;
  std::vector<double> row_norm;
  std::vector<float> row_weights;
  auto ensure_row = [&](size_t j) {
    for (size_t r = row_loc.size(); r <= j; ++r) {
      const StObject& obj = dataset_->object(candidate(r));
      row_loc.push_back(obj.loc);
      row_norm.push_back(obj.doc.NormSquared());
      row_weights.resize(row_weights.size() + width, 0.0f);
      float* row = row_weights.data() + r * width;
      ForEachKeyWeight(obj.doc.entries().data(), obj.doc.size(), keys.data(),
                       width, [row](size_t i, float w) { row[i] = w; });
    }
  };

  for (size_t u = 0; u < users.size(); ++u) {
    const StUser& user = users[u];
    RST_DCHECK_LT(user.id, result->per_user.size());
    std::vector<TopKResult>& list = result->per_user[user.id];
    list.clear();
    double rsk = -1.0;
    for (size_t j = 0; j < lo.size() + ro.size(); ++j) {
      // RO is sorted by descending UB(o, u_s): once the super-user upper
      // bound falls below this user's k-th score, nothing below can enter.
      if (j >= lo.size() && list.size() == k && ro[j - lo.size()].score < rsk) {
        break;
      }
      ensure_row(j);
      const float* row = row_weights.data() + j * width;
      double cross = 0.0;
      for (size_t s = user_begin[u]; s < user_begin[u + 1]; ++s) {
        cross += static_cast<double>(row[slots[s]]) * user_weights[s];
      }
      const double score =
          scorer_->Combine(Distance(row_loc[j], user.loc),
                           text.SimFromParts(cross, row_norm[j], user_norm[u]));
      InsertTopK(&list, k, {candidate(j), score});
      ++result->scored_objects;
      rsk = list.size() == k ? list.back().score : -1.0;
    }
    result->rsk[user.id] = rsk;
  }
}

JointTopKResult JointTopKProcessor::Process(const std::vector<StUser>& users,
                                            size_t k) const {
  JointTopKResult result;
  result.per_user.resize(users.size());
  result.rsk.assign(users.size(), -1.0);
  const SuperUser su = SuperUser::FromUsers(users);
  result.traversal = Traverse(su, k, &result.io);
  IndividualTopK(users, result.traversal, k, &result);
  static const obs::Counter runs =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkRuns);
  static const obs::Counter scored =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkScoredObjects);
  static const obs::Counter bounds = obs::MetricRegistry::Global().GetCounter(
      obs::names::kJointTopkBoundEvaluations);
  runs.Increment();
  scored.Add(result.scored_objects);
  bounds.Add(result.traversal.bound_evaluations);
  result.io.Publish(obs::names::kJointTopkIoPrefix);
  return result;
}

JointTopKResult JointTopKProcessor::BaselinePerUser(
    const std::vector<StUser>& users, size_t k) const {
  JointTopKResult result;
  result.per_user.resize(users.size());
  result.rsk.assign(users.size(), -1.0);
  TopKSearcher searcher(tree_, dataset_, scorer_);
  for (const StUser& user : users) {
    TopKQuery q;
    q.loc = user.loc;
    q.doc = &user.keywords;
    q.k = k;
    result.per_user[user.id] = searcher.Search(q, &result.io);
    result.scored_objects += result.per_user[user.id].size();
    result.rsk[user.id] = result.per_user[user.id].size() == k
                              ? result.per_user[user.id].back().score
                              : -1.0;
  }
  static const obs::Counter runs =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkBaselineRuns);
  runs.Increment();
  result.io.Publish(obs::names::kJointTopkBaselineIoPrefix);
  return result;
}

}  // namespace rst
