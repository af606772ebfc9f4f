#include "rst/iurtree/iurtree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rst/common/check.h"
#include "rst/common/stopwatch.h"
#include "rst/exec/thread_pool.h"
#include "rst/iurtree/node_arena.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"
#include "rst/storage/varint.h"

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
  obs::Gauge parallel_ms;  ///< slab-sort phase of the last bulk load
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
      m.parallel_ms = registry.GetGauge(obs::names::kIurtreeBuildParallelMs);
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

IurTree::IurTree(const IurTreeOptions& options)
    : options_(options),
      // +1 entry slot: InsertRec pushes past max_entries before splitting.
      arena_(std::make_unique<NodeArena>(options.max_entries + 1)),
      page_store_(std::make_unique<PageStore>()) {
  RST_CHECK_GE(options_.max_entries, 2 * options_.min_entries)
      << "IurTreeOptions: max_entries must be at least twice min_entries";
  root_ = arena_->Create();
}

IurTree::IurTree(IurTree&& other) noexcept
    : options_(other.options_),
      arena_(std::move(other.arena_)),
      root_(std::exchange(other.root_, nullptr)),
      page_store_(std::move(other.page_store_)),
      size_(std::exchange(other.size_, 0)),
      clustered_(other.clustered_),
      storage_dirty_(other.storage_dirty_) {}

IurTree& IurTree::operator=(IurTree&& other) noexcept {
  if (this == &other) return *this;
  if (arena_ != nullptr && root_ != nullptr) DestroyRecursive(root_);
  options_ = other.options_;
  arena_ = std::move(other.arena_);
  root_ = std::exchange(other.root_, nullptr);
  page_store_ = std::move(other.page_store_);
  size_ = std::exchange(other.size_, 0);
  clustered_ = other.clustered_;
  storage_dirty_ = other.storage_dirty_;
  return *this;
}

IurTree::~IurTree() {
  // arena_ is null exactly when this tree was moved from.
  if (arena_ != nullptr && root_ != nullptr) DestroyRecursive(root_);
}

void IurTree::DestroyRecursive(Node* node) {
  if (!node->leaf) {
    for (Entry& e : node->entries) DestroyRecursive(e.child);
  }
  arena_->Destroy(node);
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
                       const std::vector<uint32_t>* cluster_of,
                       obs::QueryTrace* trace) {
  Stopwatch build_timer;
  obs::TraceSpan build_span(trace, obs::names::kSpanIurtreeBuild);
  IurTree tree(options);
  tree.clustered_ = cluster_of != nullptr;
  tree.size_ = items.size();

  // The slab y-sorts are the only parallel phase; the slabs are disjoint
  // ranges of the x-sorted level array, so the packed tree is identical at
  // every thread count. The pool is created lazily — pure serial builds
  // (build_threads <= 1) never construct one.
  std::unique_ptr<exec::ThreadPool> pool;
  if (options.build_threads > 1) {
    pool = std::make_unique<exec::ThreadPool>(options.build_threads);
  }
  double parallel_ms = 0.0;

  if (!items.empty()) {
    const size_t cap = options.max_entries;

    if (trace != nullptr) trace->Enter(obs::names::kSpanPack);
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

      std::vector<std::pair<size_t, size_t>> slabs;
      slabs.reserve((n + slab_size - 1) / slab_size);
      for (size_t slab_begin = 0; slab_begin < n; slab_begin += slab_size) {
        slabs.push_back({slab_begin, std::min(slab_begin + slab_size, n)});
      }
      const auto sort_slab = [&level](const std::pair<size_t, size_t>& slab) {
        std::sort(level.begin() + static_cast<ptrdiff_t>(slab.first),
                  level.begin() + static_cast<ptrdiff_t>(slab.second),
                  [](const Entry& a, const Entry& b) {
                    return a.rect.Center().y < b.rect.Center().y;
                  });
      };
      {
        Stopwatch slab_timer;
        if (pool != nullptr && slabs.size() > 1) {
          pool->ParallelFor(slabs.size(), 1, [&](size_t s, size_t /*worker*/) {
            sort_slab(slabs[s]);
          });
        } else {
          for (const auto& slab : slabs) sort_slab(slab);
        }
        parallel_ms += slab_timer.ElapsedMillis();
      }

      std::vector<Entry> parents;
      for (const auto& [slab_begin, slab_end] : slabs) {
        for (size_t begin = slab_begin; begin < slab_end; begin += cap) {
          const size_t end = std::min(begin + cap, slab_end);
          Node* node = tree.arena_->Create();
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

    // Either way the constructor's placeholder root is replaced; hand its
    // chunk back so single-build trees hold exactly NodeCount() chunks.
    if (level.size() == 1 && level.front().child != nullptr) {
      tree.arena_->Destroy(tree.root_);
      tree.root_ = level.front().child;
      level.front().child = nullptr;
    } else {
      Node* root = tree.arena_->Create();
      root->leaf = false;
      for (Entry& e : level) root->entries.push_back(std::move(e));
      tree.arena_->Destroy(tree.root_);
      tree.root_ = root;
    }
    if (trace != nullptr) trace->Exit();  // pack
  }

  // Single publish point: every path — empty input, single-leaf small input,
  // full STR pack — finalizes and publishes exactly once, here.
  {
    obs::TraceSpan finalize_span(trace, obs::names::kSpanFinalizeStorage);
    tree.FinalizeStorage();
  }
  BuildMetrics::Get().parallel_ms.Set(parallel_ms);
  PublishBuildMetrics(tree, build_timer.ElapsedMillis());
  return tree;
}

IurTree IurTree::BuildFromDataset(const Dataset& dataset,
                                  const IurTreeOptions& options,
                                  const std::vector<uint32_t>* cluster_of,
                                  obs::QueryTrace* trace) {
  std::vector<Item> items;
  items.reserve(dataset.size());
  for (const StObject& obj : dataset.objects()) {
    items.push_back({obj.id, obj.loc, &obj.doc});
  }
  return Build(std::move(items), options, cluster_of, trace);
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

void IurTree::SplitNode(Node* node, Node** split_off) {
  std::vector<Entry> entries;
  entries.reserve(node->entries.size());
  for (Entry& e : node->entries) entries.push_back(std::move(e));
  node->entries.clear();
  *split_off = arena_->Create();
  (*split_off)->leaf = node->leaf;

  size_t seed_a = 0, seed_b = 1;
  double worst_waste = -1.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const double waste = Union(entries[i].rect, entries[j].rect).Area() -
                           entries[i].rect.Area() - entries[j].rect.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Node* group_a = node;
  Node* group_b = *split_off;
  Rect mbr_a = entries[seed_a].rect;
  Rect mbr_b = entries[seed_b].rect;
  group_a->entries.push_back(std::move(entries[seed_a]));
  group_b->entries.push_back(std::move(entries[seed_b]));
  std::vector<bool> assigned(entries.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    if (group_a->entries.size() + remaining == options_.min_entries ||
        group_b->entries.size() + remaining == options_.min_entries) {
      Node* needy = group_a->entries.size() + remaining == options_.min_entries
                        ? group_a
                        : group_b;
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          needy->entries.push_back(std::move(entries[i]));
          assigned[i] = true;
        }
      }
      break;
    }
    size_t pick = 0;
    double best_diff = -1.0;
    double pick_enl_a = 0.0, pick_enl_b = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (assigned[i]) continue;
      const double enl_a = mbr_a.Enlargement(entries[i].rect);
      const double enl_b = mbr_b.Enlargement(entries[i].rect);
      if (std::abs(enl_a - enl_b) > best_diff) {
        best_diff = std::abs(enl_a - enl_b);
        pick = i;
        pick_enl_a = enl_a;
        pick_enl_b = enl_b;
      }
    }
    Node* target;
    if (pick_enl_a < pick_enl_b) {
      target = group_a;
    } else if (pick_enl_b < pick_enl_a) {
      target = group_b;
    } else {
      target = group_a->entries.size() <= group_b->entries.size() ? group_a
                                                                  : group_b;
    }
    (target == group_a ? mbr_a : mbr_b).Extend(entries[pick].rect);
    target->entries.push_back(std::move(entries[pick]));
    assigned[pick] = true;
    --remaining;
  }
}

struct IurTree::InsertResult {
  Node* split_off = nullptr;
};

IurTree::InsertResult IurTree::InsertRec(Node* node, Entry entry,
                                         size_t node_height) {
  if (node->leaf) {
    node->entries.push_back(std::move(entry));
  } else {
    // Choose the child needing the least enlargement.
    size_t best = 0;
    double best_enlargement = 0.0;
    double best_area = 0.0;
    for (size_t i = 0; i < node->entries.size(); ++i) {
      const double enl = node->entries[i].rect.Enlargement(entry.rect);
      const double area = node->entries[i].rect.Area();
      if (i == 0 || enl < best_enlargement ||
          (enl == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enl;
        best_area = area;
      }
    }
    Entry& slot = node->entries[best];
    InsertResult child_result =
        InsertRec(slot.child, std::move(entry), node_height - 1);
    // Refresh the slot from its (possibly split) child.
    Entry refreshed = MakeParentEntry(slot.child);
    refreshed.id = kNoObject;
    node->entries[best] = std::move(refreshed);
    if (child_result.split_off != nullptr) {
      node->entries.push_back(MakeParentEntry(child_result.split_off));
    }
  }
  InsertResult result;
  if (node->entries.size() > options_.max_entries) {
    SplitNode(node, &result.split_off);
  }
  return result;
}

void IurTree::Insert(uint32_t id, Point loc, const TermVector* doc,
                     uint32_t cluster) {
  Entry e;
  e.rect = Rect::FromPoint(loc);
  e.summary = TextSummary::FromDoc(*doc);
  e.id = id;
  if (cluster != kNoCluster) {
    e.clusters.push_back({cluster, e.summary});
    clustered_ = true;
  }
  InsertResult result = InsertRec(root_, std::move(e), height());
  if (result.split_off != nullptr) {
    Node* new_root = arena_->Create();
    new_root->leaf = false;
    new_root->entries.push_back(MakeParentEntry(root_));
    new_root->entries.push_back(MakeParentEntry(result.split_off));
    root_ = new_root;
  }
  ++size_;
  storage_dirty_ = true;
  static const obs::Counter inserts =
      obs::MetricRegistry::Global().GetCounter(obs::names::kIurtreeInserts);
  inserts.Increment();
}

namespace {

/// Recomputes a parent entry's rect/summary/clusters from its child node.
void RefreshEntry(IurTree::Entry* e) {
  e->rect = e->child->ComputeMbr();
  e->summary = TextSummary();
  e->clusters.clear();
  for (const IurTree::Entry& ce : e->child->entries) {
    e->summary = TextSummary::Merge(e->summary, ce.summary);
    e->clusters = MergeClusterLists(e->clusters, ce.clusters);
  }
}

/// Collects all object entries beneath `entry` (moving them out), handing
/// the emptied subtree nodes back to the arena.
void FlattenToObjects(IurTree::Entry entry, NodeArena* arena,
                      std::vector<IurTree::Entry>* out) {
  if (entry.is_object()) {
    out->push_back(std::move(entry));
    return;
  }
  for (IurTree::Entry& ce : entry.child->entries) {
    FlattenToObjects(std::move(ce), arena, out);
  }
  arena->Destroy(entry.child);
}

}  // namespace

bool IurTree::DeleteRec(Node* node, uint32_t id, const Rect& target,
                        std::vector<Entry>* orphans) {
  if (node->leaf) {
    for (size_t i = 0; i < node->entries.size(); ++i) {
      if (node->entries[i].id == id && node->entries[i].rect == target) {
        node->entries.erase(node->entries.begin() + i);
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < node->entries.size(); ++i) {
    Entry& e = node->entries[i];
    if (!e.rect.Contains(target)) continue;
    if (!DeleteRec(e.child, id, target, orphans)) continue;
    if (e.child->entries.size() < options_.min_entries) {
      // Condense: re-home the survivors, drop the underfull node.
      for (Entry& ce : e.child->entries) {
        FlattenToObjects(std::move(ce), arena_.get(), orphans);
      }
      arena_->Destroy(e.child);
      node->entries.erase(node->entries.begin() + i);
    } else {
      RefreshEntry(&e);
    }
    return true;
  }
  return false;
}

Status IurTree::Delete(uint32_t id, Point loc) {
  std::vector<Entry> orphans;
  if (!DeleteRec(root_, id, Rect::FromPoint(loc), &orphans)) {
    return Status::NotFound("no such (id, location)");
  }
  --size_;
  // Shrink an internal root down to its single child.
  while (!root_->leaf && root_->entries.size() == 1) {
    Node* old_root = root_;
    root_ = root_->entries.front().child;
    arena_->Destroy(old_root);
  }
  if (!root_->leaf && root_->entries.empty()) {
    arena_->Destroy(root_);
    root_ = arena_->Create();
  }
  for (Entry& orphan : orphans) {
    InsertResult result = InsertRec(root_, std::move(orphan), height());
    if (result.split_off != nullptr) {
      Node* new_root = arena_->Create();
      new_root->leaf = false;
      new_root->entries.push_back(MakeParentEntry(root_));
      new_root->entries.push_back(MakeParentEntry(result.split_off));
      root_ = new_root;
    }
  }
  storage_dirty_ = true;
  static const obs::Counter deletes =
      obs::MetricRegistry::Global().GetCounter(obs::names::kIurtreeDeletes);
  deletes.Increment();
  return Status::Ok();
}

void IurTree::SerializeNode(Node* node) {
  if (!node->leaf) {
    for (Entry& e : node->entries) SerializeNode(e.child);
  }
  // Structural record: what an R-tree page would hold.
  std::string record;
  record.push_back(node->leaf ? 1 : 0);
  PutVarint32(&record, static_cast<uint32_t>(node->entries.size()));
  for (const Entry& e : node->entries) {
    PutDouble(&record, e.rect.min_x);
    PutDouble(&record, e.rect.min_y);
    PutDouble(&record, e.rect.max_x);
    PutDouble(&record, e.rect.max_y);
    PutVarint32(&record, e.id == kNoObject ? 0 : e.id + 1);
    PutVarint32(&record, e.count());
  }
  node->record_handle = page_store_->Write(record);

  // Inverted file: per-term <child, maxw, minw> postings (the MIR-tree
  // content), plus the per-cluster summaries when clustered.
  InvertedFile file;
  for (size_t i = 0; i < node->entries.size(); ++i) {
    const Entry& e = node->entries[i];
    for (const TermWeight& tw : e.summary.uni.entries()) {
      file[tw.term].push_back(
          {static_cast<uint32_t>(i), tw.weight, e.summary.intr.Get(tw.term)});
    }
  }
  std::string payload;
  EncodeInvertedFile(file, &payload);
  if (clustered_) {
    for (const Entry& e : node->entries) {
      PutVarint32(&payload, static_cast<uint32_t>(e.clusters.size()));
      for (const auto& [cluster_id, summary] : e.clusters) {
        PutVarint32(&payload, cluster_id);
        EncodeTextSummary(summary, &payload);
      }
    }
  }
  node->invfile_handle = page_store_->Write(payload);
}

void IurTree::FinalizeStorage() {
  if (!options_.store_payloads) {
    storage_dirty_ = false;
    return;
  }
  page_store_ = std::make_unique<PageStore>();
  SerializeNode(root_);
  storage_dirty_ = false;
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

size_t IurTree::NodeCount() const {
  size_t count = 0;
  std::vector<const Node*> stack = {root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++count;
    if (!node->leaf) {
      for (const Entry& e : node->entries) stack.push_back(e.child);
    }
  }
  return count;
}

uint64_t IurTree::IndexBytes() const { return page_store_->PayloadBytes(); }

void IurTree::ChargeAccess(const Node* node, IoStats* stats) const {
  if (stats == nullptr) return;
  stats->AddNodeRead();
  if (!storage_dirty_ && node->invfile_handle.valid()) {
    stats->AddPayloadRead(node->invfile_handle.bytes);
  }
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
                           const TextSummary& other,
                           const TextSimilarity& sim) {
  if (entry.clusters.empty()) {
    return {sim.MinSim(entry.summary, other), sim.MaxSim(entry.summary, other)};
  }
  TextBounds bounds{1.0, 0.0};
  for (const auto& [cluster_id, summary] : entry.clusters) {
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(summary, other));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(summary, other));
  }
  return bounds;
}

}  // namespace rst
