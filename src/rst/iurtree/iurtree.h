#ifndef RST_IURTREE_IURTREE_H_
#define RST_IURTREE_IURTREE_H_

#include <deque>
#include <functional>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/status.h"
#include "rst/data/dataset.h"
#include "rst/storage/io_stats.h"
#include "rst/text/similarity.h"

namespace rst {

/// The IUR-tree (Intersection–Union R-tree) of the 2011 RSTkNN paper: an
/// R-tree whose every entry additionally carries a text summary — the
/// per-term maximum (union vector) and minimum (intersection vector) weights
/// over the documents of its subtree, plus the subtree object count.
///
/// The same structure serves three roles in this library:
///  * IUR-tree over objects (2011 core);
///  * MIR-tree (2016): the node text content is an inverted file of
///    <child, maxw, minw> postings, whose length (MeasureNode) is what
///    opening the node charges in the I/O accounting;
///  * MIUR-tree over users (2016 §7): binary keyword vectors, union and
///    intersection per node, subtree user counts.
///
/// With a clustering assignment supplied at build time the tree becomes the
/// CIUR-tree: every entry keeps per-cluster summaries, giving much tighter
/// text bounds on topic-mixed nodes (see EntryTextBounds).
struct IurTreeOptions {
  size_t max_entries = 32;
};

/// Min/max text-similarity bounds of a node/entry against a query summary.
struct TextBounds {
  double min_sim = 0.0;
  double max_sim = 1.0;
};

class IurTree {
 public:
  static constexpr uint32_t kNoObject = 0xFFFFFFFFu;

  struct Node;

  /// One child slot of a node: either an object (leaf) or a subtree. The
  /// child pointer is non-owning — the tree owns every Node.
  struct Entry {
    Rect rect;
    TextSummary summary;
    /// CIUR-tree: (cluster id, summary) pairs, sorted by cluster id; empty
    /// for a plain IUR-tree.
    std::vector<std::pair<uint32_t, TextSummary>> clusters;
    uint32_t id = kNoObject;  ///< object/user id (leaf entries)
    Node* child = nullptr;    ///< subtree (internal entries), tree-owned

    bool is_object() const { return child == nullptr; }
    uint32_t count() const { return summary.count; }
  };

  /// Tree node; its entries are reserved to max_entries when it is made.
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
    /// Inverted-file length in bytes (MeasureNode).
    uint32_t invfile_bytes = 0;

    Rect ComputeMbr() const;
  };

  /// An item to index.
  struct Item {
    uint32_t id = 0;
    Point loc;
    const TermVector* doc = nullptr;  ///< must outlive the tree
  };

  /// STR bulk load — the only way to make a spatial index, which never
  /// changes afterwards. The packing reads only the item locations, so items
  /// with empty documents give the plain STR R-tree. Summaries are computed
  /// bottom-up, then every node's lengths are measured once (MeasureNode; no
  /// node is encoded). If `cluster_of` is non-null it maps item *ids* to
  /// cluster ids and the result is a CIUR-tree. Node counts and the fanout
  /// histogram go to the global metric registry (`iurtree.*`).
  static IurTree Build(std::vector<Item> items, const IurTreeOptions& options,
                       const std::vector<uint32_t>* cluster_of = nullptr);

  /// Convenience builders. The dataset/users must outlive the tree.
  static IurTree BuildFromDataset(
      const Dataset& dataset, const IurTreeOptions& options,
      const std::vector<uint32_t>* cluster_of = nullptr);
  static IurTree BuildFromUsers(const std::vector<StUser>& users,
                                const IurTreeOptions& options);

  IurTree(IurTree&& other) noexcept;
  IurTree& operator=(IurTree&& other) noexcept;
  ~IurTree();

  const Node* root() const { return root_; }
  size_t size() const { return size_; }
  size_t height() const;
  size_t NodeCount() const { return nodes_.size(); }
  bool clustered() const { return clustered_; }

  /// Total index bytes (node records + inverted files).
  uint64_t IndexBytes() const { return index_bytes_; }

  /// Charges the simulated I/O of opening `node`: one node read plus the
  /// blocks of its inverted file (papers' methodology; DESIGN.md §3.5).
  void ChargeAccess(const Node* node, IoStats* stats) const;

  /// Deep structural validation for tests: MBRs tight, summaries exactly the
  /// merge of children, counts consistent, leaves at equal depth, cluster
  /// summaries partition the blended summary. `doc_of` maps an item id to
  /// its document vector.
  Status CheckInvariants(
      const std::function<const TermVector*(uint32_t)>& doc_of) const;

 private:
  explicit IurTree(const IurTreeOptions& options);

  static Entry MakeParentEntry(Node* node);
  /// A new empty leaf with room for max_entries entries.
  Node* NewNode();

  IurTreeOptions options_;
  /// Owns every Node. A deque never moves its elements, so Entry::child and
  /// root_ stay valid as nodes are added and when the tree is moved.
  std::deque<Node> nodes_;
  Node* root_ = nullptr;
  uint64_t index_bytes_ = 0;
  size_t size_ = 0;
  bool clustered_ = false;
};

/// Text bounds of an entry against a prepared user side (a query document or
/// a super-user, prepared once per search). Cluster-aware: with per-cluster
/// summaries the bound is the min/max over clusters, which is tighter than
/// the blended summary's bound.
TextBounds EntryTextBounds(const IurTree::Entry& entry,
                           const PreparedSummary& other,
                           const TextSimilarity& sim);

}  // namespace rst

#endif  // RST_IURTREE_IURTREE_H_
