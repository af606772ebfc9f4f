#include "rst/rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace rst {

struct RTree::Node {
  bool leaf = true;
  std::vector<Entry> entries;

  Rect ComputeMbr() const;
};

struct RTree::Entry {
  Rect rect;
  ObjectId id = 0;
  std::unique_ptr<Node> child;
};

Rect RTree::Node::ComputeMbr() const {
  Rect mbr;
  for (const Entry& e : entries) mbr.Extend(e.rect);
  return mbr;
}

RTree::RTree(const RTreeOptions& options)
    : options_(options), root_(std::make_unique<Node>()) {}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

size_t RTree::height() const {
  size_t h = 0;
  for (const Node* node = root_.get(); !node->leaf;
       node = node->entries.front().child.get()) {
    ++h;
  }
  return h;
}

Rect RTree::bounds() const { return root_->ComputeMbr(); }

std::vector<ObjectId> RTree::RangeQuery(const Rect& query) const {
  std::vector<ObjectId> out;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const Entry& e : node->entries) {
      if (!e.rect.Intersects(query)) continue;
      if (node->leaf) {
        out.push_back(e.id);
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RTree::Neighbor> RTree::KnnQuery(const Point& p, size_t k) const {
  struct QueueItem {
    double dist;
    const Node* node;   // nullptr for object items
    ObjectId id;
    bool operator>(const QueueItem& other) const {
      if (dist != other.dist) return dist > other.dist;
      return id > other.id;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.push({0.0, root_.get(), 0});
  std::vector<Neighbor> out;
  while (!pq.empty() && out.size() < k) {
    const QueueItem item = pq.top();
    pq.pop();
    if (item.node == nullptr) {
      out.push_back({item.id, item.dist});
      continue;
    }
    for (const Entry& e : item.node->entries) {
      if (item.node->leaf) {
        pq.push({MinDistance(p, e.rect), nullptr, e.id});
      } else {
        pq.push({MinDistance(p, e.rect), e.child.get(), 0});
      }
    }
  }
  return out;
}

RTree RTree::BulkLoad(std::vector<std::pair<ObjectId, Rect>> items,
                      const RTreeOptions& options) {
  RTree tree(options);
  if (items.empty()) return tree;
  tree.size_ = items.size();

  const size_t cap = options.max_entries;

  // Leaf level.
  std::vector<Entry> level;
  level.reserve(items.size());
  for (auto& [id, rect] : items) {
    Entry e;
    e.rect = rect;
    e.id = id;
    level.push_back(std::move(e));
  }

  bool leaf_level = true;
  while (level.size() > cap || leaf_level) {
    // Sort-Tile-Recursive packing of `level` into parent nodes.
    const size_t n = level.size();
    const size_t num_nodes = (n + cap - 1) / cap;
    const size_t num_slabs =
        static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_nodes))));
    const size_t slab_size = ((num_nodes + num_slabs - 1) / num_slabs) * cap;

    std::sort(level.begin(), level.end(), [](const Entry& a, const Entry& b) {
      return a.rect.Center().x < b.rect.Center().x;
    });

    std::vector<Entry> parents;
    for (size_t slab_begin = 0; slab_begin < n; slab_begin += slab_size) {
      const size_t slab_end = std::min(slab_begin + slab_size, n);
      std::sort(level.begin() + slab_begin, level.begin() + slab_end,
                [](const Entry& a, const Entry& b) {
                  return a.rect.Center().y < b.rect.Center().y;
                });
      for (size_t begin = slab_begin; begin < slab_end; begin += cap) {
        const size_t end = std::min(begin + cap, slab_end);
        auto node = std::make_unique<Node>();
        node->leaf = leaf_level;
        node->entries.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          node->entries.push_back(std::move(level[i]));
        }
        Entry parent_entry;
        parent_entry.rect = node->ComputeMbr();
        parent_entry.child = std::move(node);
        parents.push_back(std::move(parent_entry));
      }
    }
    level = std::move(parents);
    leaf_level = false;
    if (level.size() == 1) break;
  }

  if (level.size() == 1) {
    tree.root_ = std::move(level.front().child);
  } else {
    tree.root_->leaf = false;
    for (Entry& e : level) tree.root_->entries.push_back(std::move(e));
  }
  return tree;
}

Status RTree::CheckInvariants() const {
  struct Frame {
    const Node* node;
    size_t depth;
  };
  size_t leaf_depth = SIZE_MAX;
  size_t objects = 0;
  std::vector<Frame> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    // STR packing leaves at most one underfull node per level (the last
    // pack), so a non-root node only has to be non-empty — but never
    // overfull.
    if (node->entries.size() > options_.max_entries ||
        (node != root_.get() && node->entries.empty())) {
      return Status::Corruption("node fan-out out of bounds");
    }
    if (node->leaf) {
      if (leaf_depth == SIZE_MAX) leaf_depth = depth;
      if (depth != leaf_depth) {
        return Status::Corruption("leaves at unequal depth");
      }
      objects += node->entries.size();
    } else {
      if (node->entries.empty()) return Status::Corruption("empty internal");
      for (const Entry& e : node->entries) {
        if (!e.child) return Status::Corruption("internal entry sans child");
        if (!(e.rect == e.child->ComputeMbr())) {
          return Status::Corruption("stale MBR");
        }
        stack.push_back({e.child.get(), depth + 1});
      }
    }
  }
  if (objects != size_) return Status::Corruption("size mismatch");
  return Status::Ok();
}

size_t RTree::NodeCount() const {
  size_t count = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++count;
    if (!node->leaf) {
      for (const Entry& e : node->entries) stack.push_back(e.child.get());
    }
  }
  return count;
}

}  // namespace rst
