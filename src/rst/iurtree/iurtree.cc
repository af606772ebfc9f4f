#include "rst/iurtree/iurtree.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
