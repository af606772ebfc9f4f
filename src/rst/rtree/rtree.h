#ifndef RST_RTREE_RTREE_H_
#define RST_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/object_id.h"
#include "rst/common/status.h"

namespace rst {

struct RTreeOptions {
  /// Maximum entries per node. The default approximates a 4 KiB page of
  /// (rect + id) entries.
  size_t max_entries = 32;
};

/// Plain R-tree over 2-D rectangles, built once by STR bulk loading, with
/// range and best-first k-nearest-neighbor queries. It is the spatial-only
/// reference the index-build table compares the IUR-tree against; the
/// spatial-textual indexes (IUR-tree / CIUR-tree, MIUR user tree) pack the
/// same way with text-augmented nodes in `rst/iurtree/`.
class RTree {
 public:
  ~RTree();

  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Sort-Tile-Recursive bulk load: produces a compact tree in O(n log n).
  static RTree BulkLoad(std::vector<std::pair<ObjectId, Rect>> items,
                        const RTreeOptions& options = RTreeOptions());

  /// All object ids whose rectangles intersect `query`.
  std::vector<ObjectId> RangeQuery(const Rect& query) const;

  struct Neighbor {
    ObjectId id;
    double distance;
  };
  /// The k objects whose rectangles are nearest to `p` (best-first search,
  /// min-distance ordering; ties broken by id for determinism).
  std::vector<Neighbor> KnnQuery(const Point& p, size_t k) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t height() const;
  Rect bounds() const;

  /// Structural invariants (for tests): MBRs tightly contain children,
  /// fan-out within limits, all leaves at equal depth, size consistent.
  Status CheckInvariants() const;

  /// Number of nodes (for size accounting).
  size_t NodeCount() const;

 private:
  struct Node;
  struct Entry;

  explicit RTree(const RTreeOptions& options);

  RTreeOptions options_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace rst

#endif  // RST_RTREE_RTREE_H_
