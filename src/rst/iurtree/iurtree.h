#ifndef RST_IURTREE_IURTREE_H_
#define RST_IURTREE_IURTREE_H_

#include <functional>
#include <memory>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/status.h"
#include "rst/data/dataset.h"
#include "rst/iurtree/arena_array.h"
#include "rst/storage/codec.h"
#include "rst/storage/io_stats.h"
#include "rst/storage/page_store.h"
#include "rst/text/similarity.h"

namespace rst {

namespace obs {
class QueryTrace;
}  // namespace obs

/// The IUR-tree (Intersection–Union R-tree) of the 2011 RSTkNN paper: an
/// R-tree whose every entry additionally carries a text summary — the
/// per-term maximum (union vector) and minimum (intersection vector) weights
/// over the documents of its subtree, plus the subtree object count.
///
/// The same structure serves three roles in this library:
///  * IUR-tree over objects (2011 core);
///  * MIR-tree (2016): the node text content is materialized as an inverted
///    file of <child, maxw, minw> postings, which is exactly what is
///    serialized into the page store for I/O accounting;
///  * MIUR-tree over users (2016 §7): binary keyword vectors, union and
///    intersection per node, subtree user counts.
///
/// With a clustering assignment supplied at build time the tree becomes the
/// CIUR-tree: every entry keeps per-cluster summaries, giving much tighter
/// text bounds on topic-mixed nodes (see EntryTextBounds).
struct IurTreeOptions {
  size_t max_entries = 32;
  size_t min_entries = 12;  ///< used by dynamic inserts (split fill)
  /// Serialize node records and inverted files into the page store so that
  /// index size is byte-accurate and node accesses can be charged.
  bool store_payloads = true;
  /// Worker threads for the STR bulk-load slab sorts. The slabs are disjoint
  /// ranges of one level array, so the resulting tree is identical at every
  /// thread count. 1 = fully serial (no pool is created).
  size_t build_threads = 1;
};

/// Min/max text-similarity bounds of a node/entry against a query summary.
struct TextBounds {
  double min_sim = 0.0;
  double max_sim = 1.0;
};

class NodeArena;  // rst/iurtree/node_arena.h

class IurTree {
 public:
  static constexpr uint32_t kNoObject = 0xFFFFFFFFu;

  struct Node;

  /// One child slot of a node: either an object (leaf) or a subtree. The
  /// child pointer is non-owning — every Node lives on the tree's NodeArena
  /// and is destroyed explicitly (DestroyRecursive) or with the tree.
  struct Entry {
    Rect rect;
    TextSummary summary;
    /// CIUR-tree: (cluster id, summary) pairs, sorted by cluster id; empty
    /// for a plain IUR-tree.
    std::vector<std::pair<uint32_t, TextSummary>> clusters;
    uint32_t id = kNoObject;  ///< object/user id (leaf entries)
    Node* child = nullptr;    ///< subtree (internal entries), arena-owned

    bool is_object() const { return child == nullptr; }
    uint32_t count() const { return summary.count; }
  };

  /// Tree node. Constructed only by NodeArena::Create, which co-allocates
  /// the entry storage in the same cache-line-aligned arena chunk — one
  /// allocation per node, entries adjacent to the header they belong to.
  struct Node {
    Node(Entry* entry_storage, size_t entry_capacity)
        : entries(entry_storage, entry_capacity) {}

    bool leaf = true;
    ArenaArray<Entry> entries;
    /// Storage handles (valid after the build serializes payloads).
    PageHandle record_handle;
    PageHandle invfile_handle;

    Rect ComputeMbr() const;
  };

  /// An item to index.
  struct Item {
    uint32_t id = 0;
    Point loc;
    const TermVector* doc = nullptr;  ///< must outlive the tree
  };

  /// STR bulk load; summaries are computed bottom-up. If `cluster_of` is
  /// non-null it maps item *ids* to cluster ids and the result is a
  /// CIUR-tree. An optional trace records build-phase spans (pack,
  /// finalize_storage); node counts and the fanout histogram always go to
  /// the global metric registry (`iurtree.*`).
  static IurTree Build(std::vector<Item> items, const IurTreeOptions& options,
                       const std::vector<uint32_t>* cluster_of = nullptr,
                       obs::QueryTrace* trace = nullptr);

  /// Convenience builders. The dataset/users must outlive the tree.
  static IurTree BuildFromDataset(const Dataset& dataset,
                                  const IurTreeOptions& options,
                                  const std::vector<uint32_t>* cluster_of =
                                      nullptr,
                                  obs::QueryTrace* trace = nullptr);
  static IurTree BuildFromUsers(const std::vector<StUser>& users,
                                const IurTreeOptions& options);

  IurTree(IurTree&& other) noexcept;
  IurTree& operator=(IurTree&& other) noexcept;
  ~IurTree();

  /// Dynamic insertion (quadratic split, summaries propagated upward).
  /// Invalidates the serialized payloads until FinalizeStorage() is called
  /// again.
  void Insert(uint32_t id, Point loc, const TermVector* doc,
              uint32_t cluster = kNoCluster);
  static constexpr uint32_t kNoCluster = 0xFFFFFFFFu;

  /// Removes the object `(id, loc)`; NotFound if absent. Underfull nodes are
  /// condensed and their remaining objects re-inserted; intersection/union
  /// summaries stay exact along every touched path (update costs mirror the
  /// IR-tree, as the 2011 paper's cost analysis claims). Invalidates the
  /// serialized payloads until FinalizeStorage().
  Status Delete(uint32_t id, Point loc);

  /// (Re)serializes node records and inverted files into the page store.
  void FinalizeStorage();

  const Node* root() const { return root_; }
  size_t size() const { return size_; }
  size_t height() const;
  size_t NodeCount() const;
  bool clustered() const { return clustered_; }
  /// True when the serialized payloads are in sync with the tree (after a
  /// payload-storing build or FinalizeStorage(), until the next
  /// Insert/Delete). Gates payload re-encoding in frozen::FrozenTree::Freeze.
  bool storage_finalized() const { return !storage_dirty_; }

  /// Total serialized bytes (node records + inverted files).
  uint64_t IndexBytes() const;
  const PageStore& page_store() const { return *page_store_; }
  const NodeArena& arena() const { return *arena_; }

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

  struct InsertResult;
  InsertResult InsertRec(Node* node, Entry entry, size_t node_height);
  bool DeleteRec(Node* node, uint32_t id, const Rect& target,
                 std::vector<Entry>* orphans);
  void SplitNode(Node* node, Node** split_off);
  static Entry MakeParentEntry(Node* node);
  /// Destroys `node` and its whole subtree back into the arena.
  void DestroyRecursive(Node* node);
  void SerializeNode(Node* node);

  IurTreeOptions options_;
  /// Owns every Node (and its co-allocated entry storage); declared before
  /// root_ so the slabs outlive the pointers into them.
  std::unique_ptr<NodeArena> arena_;
  Node* root_ = nullptr;
  std::unique_ptr<PageStore> page_store_;
  size_t size_ = 0;
  bool clustered_ = false;
  bool storage_dirty_ = true;
};

/// Text bounds of an entry against a plain summary (e.g. a query document or
/// a super-user). Cluster-aware: with per-cluster summaries the bound is the
/// min/max over clusters, which is tighter than the blended summary's bound.
TextBounds EntryTextBounds(const IurTree::Entry& entry,
                           const TextSummary& other,
                           const TextSimilarity& sim);

}  // namespace rst

#endif  // RST_IURTREE_IURTREE_H_
