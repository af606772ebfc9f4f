#ifndef RST_IURTREE_NODE_ARENA_H_
#define RST_IURTREE_NODE_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "rst/iurtree/iurtree.h"

namespace rst {

/// Slab/bump allocator for IurTree nodes. Each chunk holds one Node header
/// followed by storage for a fixed number of Entry slots (max_entries),
/// starts on a cache-line boundary, and is carved from a large slab — so a
/// bulk load makes one heap allocation per ~256 KiB of nodes instead of two
/// (node + entry vector) per node, and sibling nodes land adjacent in memory
/// in build order, which is exactly the order the STR-packed tree is
/// traversed.
///
/// Trees are built once and never shrink, so nodes are never freed one by
/// one: the arena destroys every node it created when it dies. Not
/// thread-safe — each tree owns one arena and nodes are created serially
/// (the parallel bulk-load phase only sorts entry ranges).
class NodeArena {
 public:
  /// `entry_capacity` is the fixed Entry-slot count of every chunk.
  explicit NodeArena(size_t entry_capacity);
  /// Runs every created node's destructor (and with it its entries').
  ~NodeArena();

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Placement-constructs a Node (leaf, no entries) in the next chunk. The
  /// node's entry array points into the same chunk.
  IurTree::Node* Create();

  size_t node_count() const { return node_count_; }
  size_t entry_capacity() const { return entry_capacity_; }
  size_t chunk_bytes() const { return chunk_bytes_; }
  /// Total bytes reserved in slabs (≥ node_count() * chunk_bytes()).
  size_t allocated_bytes() const { return slabs_.size() * slab_bytes_; }

 private:
  void AddSlab();
  /// The cache-line-aligned first chunk of slab `i`.
  std::byte* FirstChunk(size_t i) const;

  size_t entry_capacity_;
  size_t entry_offset_;  ///< byte offset of the Entry storage within a chunk
  size_t chunk_bytes_;   ///< chunk stride, cache-line multiple
  size_t chunks_per_slab_;
  size_t slab_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* bump_ = nullptr;   ///< next unused chunk of the newest slab
  size_t bump_remaining_ = 0;   ///< unused chunks after bump_
  size_t node_count_ = 0;
};

}  // namespace rst

#endif  // RST_IURTREE_NODE_ARENA_H_
