#ifndef RST_FROZEN_FROZEN_H_
#define RST_FROZEN_FROZEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/status.h"
#include "rst/data/dataset.h"
#include "rst/iurtree/iurtree.h"
#include "rst/storage/io_stats.h"
#include "rst/text/similarity.h"

namespace rst {

namespace frozen {

/// (offset, len) reference into the shared term-weight pool.
struct TermSlice {
  uint64_t offset = 0;
  uint32_t len = 0;
};

/// A text summary whose uni/intr vectors live in the shared pool. Norms are
/// cached (recomputed in slice order on load, which reproduces the
/// TermVector construction cache bit-for-bit).
struct SummaryRef {
  TermSlice uni;
  TermSlice intr;
  double uni_norm_sq = 0.0;
  double intr_norm_sq = 0.0;
  uint32_t count = 0;
};

/// One per-cluster summary of a CIUR-tree entry.
struct ClusterRef {
  uint32_t cluster_id = 0;
  SummaryRef summary;
};

/// An immutable, pointer-free snapshot of a built IUR-/CIUR-tree — the index
/// every RSTkNN search runs on (an IurTree is the builder that is frozen
/// once). SoA node/entry arrays are laid out in the deterministic preorder
/// that numbers entries for EXPLAIN (entry index i carries explain id i + 1),
/// with every term weight — union/intersection summaries, per-cluster
/// summaries, leaf documents — concatenated into one contiguous TermWeight
/// pool referenced by (offset, len) slices. The flat layout removes the
/// pointer chasing and scattered term-weight reads of the builder's
/// pointer-linked nodes, each holding its own term vectors (DESIGN.md §10).
///
/// Storage: only lengths are kept — each node's inverted-file bytes and the
/// IndexBytes total. Freeze copies them from the source tree, so the
/// simulated I/O accounting matches it exactly. The serialized file
/// (Save/Load) stores only the arrays and the pool; on load the lengths are
/// measured again with the source tree's size function (MeasureNode).
class FrozenTree {
 public:
  static constexpr uint32_t kNoObject = IurTree::kNoObject;
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;
  /// Bumped on any serialized-layout change; Load rejects other versions.
  static constexpr uint32_t kFormatVersion = 1;

  FrozenTree() = default;
  FrozenTree(FrozenTree&&) noexcept = default;
  FrozenTree& operator=(FrozenTree&&) noexcept = default;

  /// Snapshots a built tree, copying its node lengths. Publishes
  /// frozen.freezes / frozen.freeze.last_ms.
  static FrozenTree Freeze(const IurTree& tree);

  // --- Topology (node/entry indices; root node is 0) ---
  uint32_t num_nodes() const { return static_cast<uint32_t>(node_leaf_.size()); }
  uint32_t num_entries() const {
    return static_cast<uint32_t>(entry_id_.size());
  }
  uint32_t root() const { return 0; }
  size_t size() const { return size_; }  ///< indexed object count
  bool clustered() const { return clustered_; }

  bool IsLeaf(uint32_t node) const { return node_leaf_[node] != 0; }
  uint32_t EntryBegin(uint32_t node) const { return node_entry_begin_[node]; }
  uint32_t EntryCount(uint32_t node) const { return node_entry_count_[node]; }

  // --- Entries ---
  const Rect& EntryRect(uint32_t e) const { return entry_rect_[e]; }
  bool IsObject(uint32_t e) const { return entry_child_[e] == kNoNode; }
  uint32_t ObjectIdOf(uint32_t e) const { return entry_id_[e]; }
  uint32_t Child(uint32_t e) const { return entry_child_[e]; }
  uint32_t Count(uint32_t e) const { return entry_summary_[e].count; }
  /// Tree level (0 = root entries); the explain id of entry e is e + 1.
  uint32_t EntryLevel(uint32_t e) const { return entry_level_[e]; }

  SummarySpan Summary(uint32_t e) const { return Span(entry_summary_[e]); }
  uint32_t NumClusters(uint32_t e) const { return entry_cluster_count_[e]; }
  uint32_t ClusterId(uint32_t e, uint32_t i) const {
    return clusters_[entry_cluster_begin_[e] + i].cluster_id;
  }
  SummarySpan ClusterSummary(uint32_t e, uint32_t i) const {
    return Span(clusters_[entry_cluster_begin_[e] + i].summary);
  }
  uint32_t ClusterCount(uint32_t e, uint32_t i) const {
    return clusters_[entry_cluster_begin_[e] + i].summary.count;
  }

  // --- Storage / I/O (mirrors IurTree accounting byte-for-byte) ---
  /// Total index bytes (node records + inverted files).
  uint64_t IndexBytes() const { return index_bytes_; }

  /// Charges the simulated I/O of opening `node`: one node read plus the
  /// blocks of its inverted file. The only way a search charges I/O
  /// (DESIGN.md §3.5).
  void ChargeAccess(uint32_t node, IoStats* stats) const;

  // --- Persistence (versioned flat snapshot; DESIGN.md §10.3) ---
  std::string SerializeToString() const;
  /// Rejects wrong magic/version, truncation, checksum mismatches, and
  /// inconsistent indices with a Status — never crashes on corrupt input.
  static Result<FrozenTree> Deserialize(const std::string& bytes);
  Status Save(const std::string& path) const;
  static Result<FrozenTree> Load(const std::string& path);

  /// Deep validation for tests: array sizes consistent, slices inside the
  /// pool, child links acyclic and complete, levels consistent.
  Status CheckInvariants() const;

  /// InvalidArgument unless this snapshot indexes exactly the objects of
  /// `dataset`: the same object count, and every leaf entry's rect and
  /// summary (uni and intr) equal to its object's point and document. A
  /// search reads each answer's object from the dataset by id, so a
  /// snapshot of another dataset would answer wrongly or read past its end.
  /// O(total terms).
  Status CheckMatchesDataset(const Dataset& dataset) const;

 private:
  SummarySpan Span(const SummaryRef& s) const {
    return SummarySpan{
        TermSpan{pool_.data() + s.uni.offset, s.uni.len, s.uni_norm_sq},
        TermSpan{pool_.data() + s.intr.offset, s.intr.len, s.intr_norm_sq},
        s.count};
  }

  /// Measures every node's lengths with MeasureNode (Deserialize).
  void MeasureNodes();
  void RecomputeNorms();

  // SoA node arrays.
  std::vector<uint8_t> node_leaf_;
  std::vector<uint32_t> node_entry_begin_;
  std::vector<uint32_t> node_entry_count_;
  std::vector<uint32_t> node_invfile_bytes_;

  // SoA entry arrays (index order == explain preorder, id = index + 1).
  std::vector<Rect> entry_rect_;
  std::vector<uint32_t> entry_id_;     ///< object id or kNoObject
  std::vector<uint32_t> entry_child_;  ///< node index or kNoNode
  std::vector<uint32_t> entry_level_;
  std::vector<SummaryRef> entry_summary_;
  std::vector<uint32_t> entry_cluster_begin_;
  std::vector<uint32_t> entry_cluster_count_;

  std::vector<ClusterRef> clusters_;  ///< concatenated per-entry cluster runs
  std::vector<TermWeight> pool_;      ///< shared term-weight arena

  uint64_t index_bytes_ = 0;
  uint64_t size_ = 0;
  bool clustered_ = false;
};

}  // namespace frozen
}  // namespace rst

#endif  // RST_FROZEN_FROZEN_H_
