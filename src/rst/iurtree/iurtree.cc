#include "rst/iurtree/iurtree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rst/common/check.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/storage/node_size.h"

namespace rst {

namespace {

using ClusterList = std::vector<std::pair<uint32_t, TextSummary>>;

/// Build metrics (`iurtree.*`): published after every bulk load. Handles are
/// cached once; the per-build cost is one O(nodes) walk.
struct BuildMetrics {
  obs::Counter builds;
  obs::Counter nodes_total;
  obs::Counter leaves_total;
  obs::Gauge last_build_ms;
  obs::Gauge last_node_count;
  obs::HistogramRef fanout;

  static const BuildMetrics& Get() {
    static const BuildMetrics metrics = [] {
      BuildMetrics m;
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m.builds = registry.GetCounter(obs::names::kIurtreeBuilds);
      m.nodes_total = registry.GetCounter(obs::names::kIurtreeBuildNodes);
      m.leaves_total = registry.GetCounter(obs::names::kIurtreeBuildLeafNodes);
      m.last_build_ms = registry.GetGauge(obs::names::kIurtreeBuildLastMs);
      m.last_node_count = registry.GetGauge(obs::names::kIurtreeBuildLastNodeCount);
      // Fanout never exceeds max_entries (<= 64 in every configuration used
      // here); linear buckets of width 4 resolve underfull nodes.
      m.fanout = registry.GetHistogram(obs::names::kIurtreeFanout,
                                       obs::HistogramSpec::Linear(4, 4, 16));
      return m;
    }();
    return metrics;
  }
};

ClusterList MergeClusterLists(const ClusterList& a, const ClusterList& b) {
  ClusterList out;
  out.reserve(a.size() + b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      out.push_back(*ia++);
    } else if (ia == a.end() || ib->first < ia->first) {
      out.push_back(*ib++);
    } else {
      out.push_back({ia->first, TextSummary::Merge(ia->second, ib->second)});
      ++ia;
      ++ib;
    }
  }
  return out;
}

}  // namespace

Rect IurTree::Node::ComputeMbr() const {
  Rect mbr;
  for (const Entry& e : entries) mbr.Extend(e.rect);
  return mbr;
}

IurTree::IurTree(const IurTreeOptions& options) : options_(options) {}

IurTree::IurTree(IurTree&& other) noexcept = default;
IurTree& IurTree::operator=(IurTree&& other) noexcept = default;
IurTree::~IurTree() = default;

IurTree::Node* IurTree::NewNode() {
  Node& node = nodes_.emplace_back();
  node.entries.reserve(options_.max_entries);
  return &node;
}

IurTree::Entry IurTree::MakeParentEntry(Node* node) {
  Entry parent;
  parent.rect = node->ComputeMbr();
  for (const Entry& e : node->entries) {
    parent.summary = TextSummary::Merge(parent.summary, e.summary);
    parent.clusters = MergeClusterLists(parent.clusters, e.clusters);
  }
  parent.child = node;
  return parent;
}

namespace {

/// Counts nodes/leaves and records the fanout histogram of a finished tree.
void PublishBuildMetrics(const IurTree& tree, double build_ms) {
  const BuildMetrics& metrics = BuildMetrics::Get();
  uint64_t nodes = 0;
  uint64_t leaves = 0;
  std::vector<const IurTree::Node*> stack = {tree.root()};
  while (!stack.empty()) {
    const IurTree::Node* node = stack.back();
    stack.pop_back();
    ++nodes;
    if (node->leaf) ++leaves;
    metrics.fanout.Record(static_cast<double>(node->entries.size()));
    if (!node->leaf) {
      for (const IurTree::Entry& e : node->entries) {
        stack.push_back(e.child);
      }
    }
  }
  metrics.builds.Increment();
  metrics.nodes_total.Add(nodes);
  metrics.leaves_total.Add(leaves);
  metrics.last_build_ms.Set(build_ms);
  metrics.last_node_count.Set(static_cast<double>(nodes));
}

}  // namespace

IurTree IurTree::Build(std::vector<Item> items, const IurTreeOptions& options,
                       const std::vector<uint32_t>* cluster_of) {
  Stopwatch build_timer;
  IurTree tree(options);
  tree.clustered_ = cluster_of != nullptr;
  tree.size_ = items.size();

  if (!items.empty()) {
    const size_t cap = options.max_entries;

    std::vector<Entry> level;
    level.reserve(items.size());
    for (const Item& item : items) {
      Entry e;
      e.rect = Rect::FromPoint(item.loc);
      e.summary = TextSummary::FromDoc(*item.doc);
      e.id = item.id;
      if (cluster_of != nullptr) {
        e.clusters.push_back({(*cluster_of)[item.id], e.summary});
      }
      level.push_back(std::move(e));
    }

    bool leaf_level = true;
    while (level.size() > cap || leaf_level) {
      const size_t n = level.size();
      const size_t num_nodes = (n + cap - 1) / cap;
      const size_t num_slabs = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_nodes))));
      const size_t slab_size = ((num_nodes + num_slabs - 1) / num_slabs) * cap;

      std::sort(level.begin(), level.end(), [](const Entry& a, const Entry& b) {
        return a.rect.Center().x < b.rect.Center().x;
      });

      std::vector<Entry> parents;
      for (size_t slab_begin = 0; slab_begin < n; slab_begin += slab_size) {
        const size_t slab_end = std::min(slab_begin + slab_size, n);
        std::sort(level.begin() + static_cast<ptrdiff_t>(slab_begin),
                  level.begin() + static_cast<ptrdiff_t>(slab_end),
                  [](const Entry& a, const Entry& b) {
                    return a.rect.Center().y < b.rect.Center().y;
                  });
        for (size_t begin = slab_begin; begin < slab_end; begin += cap) {
          const size_t end = std::min(begin + cap, slab_end);
          Node* node = tree.NewNode();
          node->leaf = leaf_level;
          for (size_t i = begin; i < end; ++i) {
            node->entries.push_back(std::move(level[i]));
          }
          parents.push_back(MakeParentEntry(node));
        }
      }
      level = std::move(parents);
      leaf_level = false;
      if (level.size() == 1) break;
    }

    // Every level entry has a child; a lone one is the root, otherwise the
    // (at most max_entries) top entries get a root of their own.
    if (level.size() == 1) {
      tree.root_ = level.front().child;
    } else {
      tree.root_ = tree.NewNode();
      tree.root_->leaf = false;
      for (Entry& e : level) tree.root_->entries.push_back(std::move(e));
    }
  } else {
    tree.root_ = tree.NewNode();  // an empty leaf
  }

  // Single publish point: every path — empty input, single-leaf small input,
  // full STR pack — measures storage and publishes exactly once, here.
  std::vector<Node*> stack = {tree.root_};
  std::vector<SizedEntry> entries;
  std::vector<SizedCluster> clusters;
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    entries.clear();
    clusters.clear();
    for (const Entry& e : node->entries) {
      entries.push_back({e.id, AsSpan(e.summary),
                         static_cast<uint32_t>(clusters.size()),
                         static_cast<uint32_t>(e.clusters.size())});
      for (const auto& [cluster_id, summary] : e.clusters) {
        clusters.push_back({cluster_id, AsSpan(summary)});
      }
    }
    const NodeSizes sizes = MeasureNode(entries, clusters, tree.clustered_);
    node->invfile_bytes = static_cast<uint32_t>(sizes.invfile_bytes);
    tree.index_bytes_ += sizes.record_bytes + sizes.invfile_bytes;
    if (!node->leaf) {
      for (const Entry& e : node->entries) stack.push_back(e.child);
    }
  }
  PublishBuildMetrics(tree, build_timer.ElapsedMillis());
  return tree;
}

IurTree IurTree::BuildFromDataset(const Dataset& dataset,
                                  const IurTreeOptions& options,
                                  const std::vector<uint32_t>* cluster_of) {
  std::vector<Item> items;
  items.reserve(dataset.size());
  for (const StObject& obj : dataset.objects()) {
    items.push_back({obj.id, obj.loc, &obj.doc});
  }
  return Build(std::move(items), options, cluster_of);
}

IurTree IurTree::BuildFromUsers(const std::vector<StUser>& users,
                                const IurTreeOptions& options) {
  std::vector<Item> items;
  items.reserve(users.size());
  for (const StUser& u : users) {
    items.push_back({u.id, u.loc, &u.keywords});
  }
  return Build(std::move(items), options, nullptr);
}

size_t IurTree::height() const {
  size_t h = 0;
  const Node* node = root_;
  while (!node->leaf) {
    node = node->entries.front().child;
    ++h;
  }
  return h;
}

void IurTree::ChargeAccess(const Node* node, IoStats* stats) const {
  if (stats == nullptr) return;
  stats->AddNodeRead();
  stats->AddPayloadRead(node->invfile_bytes);
}

namespace {

/// Formats "depth D, entry I" for invariant-violation messages so a failed
/// check names the exact node, not just the rule it broke.
std::string EntryContext(size_t depth, size_t index) {
  return "depth " + std::to_string(depth) + ", entry " + std::to_string(index);
}

/// Structural validity of one term vector: sorted unique term ids,
/// non-negative weights, and the cached squared norm agreeing with a fresh
/// recomputation (the caches are what the similarity kernels actually read,
/// so a stale cache silently skews every bound downstream).
Status CheckVectorWellFormed(const TermVector& v, const std::string& what) {
  const std::vector<TermWeight>& entries = v.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i - 1].term >= entries[i].term) {
      return Status::Corruption(what + ": term ids not strictly ascending at "
                                "position " + std::to_string(i));
    }
    if (entries[i].weight < 0.0f) {
      return Status::Corruption(what + ": negative weight for term " +
                                std::to_string(entries[i].term));
    }
  }
  if (v.NormSquared() != NormSquaredSpan(entries.data(), entries.size())) {
    return Status::Corruption(what + ": cached norm disagrees with weights");
  }
  return Status::Ok();
}

/// The IUR-tree bracketing contract: the intersection vector must be
/// dominated by the union vector — every intr term present in uni with
/// intr weight <= uni weight. A violation would let MinSim exceed MaxSim
/// and flip prune/report decisions.
Status CheckSummaryDomination(const TextSummary& s, const std::string& what) {
  Status well_formed = CheckVectorWellFormed(s.uni, what + " union");
  if (!well_formed.ok()) return well_formed;
  well_formed = CheckVectorWellFormed(s.intr, what + " intersection");
  if (!well_formed.ok()) return well_formed;
  for (const TermWeight& e : s.intr.entries()) {
    const float uni_weight = s.uni.Get(e.term);
    if (!s.uni.Contains(e.term) || e.weight > uni_weight) {
      return Status::Corruption(
          what + ": intersection weight " + std::to_string(e.weight) +
          " for term " + std::to_string(e.term) +
          " exceeds union weight " + std::to_string(uni_weight));
    }
  }
  if (s.count == 0 && (!s.uni.empty() || !s.intr.empty())) {
    return Status::Corruption(what + ": empty summary carries terms");
  }
  return Status::Ok();
}

}  // namespace

Status IurTree::CheckInvariants(
    const std::function<const TermVector*(uint32_t)>& doc_of) const {
  struct Frame {
    const Node* node;
    size_t depth;
  };
  if (root_ == nullptr) return Status::Corruption("null root");
  size_t leaf_depth = SIZE_MAX;
  uint64_t objects_seen = 0;
  std::vector<Frame> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    if (node->entries.size() > options_.max_entries) {
      return Status::Corruption("node overflow at depth " +
                                std::to_string(depth) + ": " +
                                std::to_string(node->entries.size()) +
                                " entries, max " +
                                std::to_string(options_.max_entries));
    }
    // Every entry — leaf or internal — must carry a dominated, well-formed
    // summary whose MBR contains nothing outside the parent (checked from
    // the parent side below) and whose cluster list is sorted.
    for (size_t i = 0; i < node->entries.size(); ++i) {
      const Entry& e = node->entries[i];
      const std::string context = EntryContext(depth, i);
      const Status summary_ok =
          CheckSummaryDomination(e.summary, context + " summary");
      if (!summary_ok.ok()) return summary_ok;
      for (size_t c = 0; c < e.clusters.size(); ++c) {
        if (c > 0 && e.clusters[c - 1].first >= e.clusters[c].first) {
          return Status::Corruption(context +
                                    ": cluster ids not strictly ascending");
        }
        const Status cluster_ok = CheckSummaryDomination(
            e.clusters[c].second,
            context + " cluster " + std::to_string(e.clusters[c].first));
        if (!cluster_ok.ok()) return cluster_ok;
      }
    }
    if (node->leaf) {
      if (leaf_depth == SIZE_MAX) leaf_depth = depth;
      if (depth != leaf_depth) {
        return Status::Corruption("unequal leaf depth: " +
                                  std::to_string(depth) + " vs " +
                                  std::to_string(leaf_depth));
      }
      for (size_t i = 0; i < node->entries.size(); ++i) {
        const Entry& e = node->entries[i];
        const std::string context = EntryContext(depth, i);
        if (!e.is_object()) {
          return Status::Corruption(context + ": leaf entry with a child");
        }
        if (e.count() != 1) {
          return Status::Corruption(context + ": leaf entry count " +
                                    std::to_string(e.count()) + " != 1");
        }
        const TermVector* doc = doc_of(e.id);
        if (doc == nullptr) {
          return Status::Corruption(context + ": unknown object id " +
                                    std::to_string(e.id));
        }
        if (!(e.summary.uni == *doc) || !(e.summary.intr == *doc)) {
          return Status::Corruption(context + ": summary of object " +
                                    std::to_string(e.id) +
                                    " differs from its document");
        }
        if (clustered_ && e.clusters.size() != 1) {
          return Status::Corruption(context + ": leaf cluster list size " +
                                    std::to_string(e.clusters.size()) +
                                    " != 1");
        }
        ++objects_seen;
      }
      continue;
    }
    for (size_t i = 0; i < node->entries.size(); ++i) {
      const Entry& e = node->entries[i];
      const std::string context = EntryContext(depth, i);
      if (e.is_object()) {
        return Status::Corruption(context + ": object entry in internal node");
      }
      const Node* child = e.child;
      const Rect child_mbr = child->ComputeMbr();
      if (!(e.rect == child_mbr)) {
        return Status::Corruption(context + ": stale MBR " + e.rect.ToString() +
                                  ", children span " + child_mbr.ToString());
      }
      TextSummary expected;
      ClusterList expected_clusters;
      for (const Entry& ce : child->entries) {
        expected = TextSummary::Merge(expected, ce.summary);
        expected_clusters = MergeClusterLists(expected_clusters, ce.clusters);
      }
      if (!(expected.uni == e.summary.uni) ||
          !(expected.intr == e.summary.intr) ||
          expected.count != e.summary.count) {
        return Status::Corruption(
            context + ": summary is not the merge of its " +
            std::to_string(child->entries.size()) + " children (count " +
            std::to_string(e.summary.count) + ", expected " +
            std::to_string(expected.count) + ")");
      }
      if (expected_clusters.size() != e.clusters.size()) {
        return Status::Corruption(context + ": cluster list size " +
                                  std::to_string(e.clusters.size()) +
                                  ", children merge to " +
                                  std::to_string(expected_clusters.size()));
      }
      uint32_t cluster_total = 0;
      for (size_t c = 0; c < expected_clusters.size(); ++c) {
        if (expected_clusters[c].first != e.clusters[c].first ||
            !(expected_clusters[c].second.uni == e.clusters[c].second.uni) ||
            !(expected_clusters[c].second.intr == e.clusters[c].second.intr) ||
            expected_clusters[c].second.count != e.clusters[c].second.count) {
          return Status::Corruption(
              context + ": stale summary for cluster " +
              std::to_string(e.clusters[c].first));
        }
        cluster_total += e.clusters[c].second.count;
      }
      if (clustered_ && cluster_total != e.count()) {
        return Status::Corruption(
            context + ": cluster counts sum to " +
            std::to_string(cluster_total) + ", entry covers " +
            std::to_string(e.count()) + " objects");
      }
      stack.push_back({child, depth + 1});
    }
  }
  if (objects_seen != size_) {
    return Status::Corruption("tree holds " + std::to_string(objects_seen) +
                              " objects, size() says " +
                              std::to_string(size_));
  }
  return Status::Ok();
}

TextBounds EntryTextBounds(const IurTree::Entry& entry,
                           const PreparedSummary& other,
                           const TextSimilarity& sim) {
  if (entry.clusters.empty()) {
    const SummarySpan s = AsSpan(entry.summary);
    return {sim.MinSim(s, other), sim.MaxSim(s, other)};
  }
  TextBounds bounds{1.0, 0.0};
  for (const auto& [cluster_id, summary] : entry.clusters) {
    const SummarySpan s = AsSpan(summary);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(s, other));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(s, other));
  }
  return bounds;
}

}  // namespace rst
