#include "rst/iurtree/node_arena.h"

#include <cstdint>
#include <new>

namespace rst {

namespace {

constexpr size_t kCacheLine = 64;
/// Slab size target: large enough that slab allocation is noise next to the
/// node construction it amortizes, small enough not to strand memory on tiny
/// trees (one slab still holds hundreds of chunks at default fanout).
constexpr size_t kTargetSlabBytes = size_t{256} * 1024;

size_t AlignUp(size_t n, size_t alignment) {
  return (n + alignment - 1) / alignment * alignment;
}

}  // namespace

NodeArena::NodeArena(size_t entry_capacity) : entry_capacity_(entry_capacity) {
  static_assert(alignof(IurTree::Node) <= kCacheLine);
  entry_offset_ = AlignUp(sizeof(IurTree::Node), alignof(IurTree::Entry));
  chunk_bytes_ = AlignUp(
      entry_offset_ + entry_capacity_ * sizeof(IurTree::Entry), kCacheLine);
  chunks_per_slab_ = kTargetSlabBytes / chunk_bytes_;
  if (chunks_per_slab_ == 0) chunks_per_slab_ = 1;
  slab_bytes_ = chunks_per_slab_ * chunk_bytes_;
}

NodeArena::~NodeArena() {
  // Chunks are handed out in order: every full slab, then the newest one up
  // to bump_.
  size_t remaining = node_count_;
  for (size_t i = 0; i < slabs_.size(); ++i) {
    std::byte* chunk = FirstChunk(i);
    for (size_t c = 0; c < chunks_per_slab_ && remaining > 0; ++c) {
      std::launder(reinterpret_cast<IurTree::Node*>(chunk))->~Node();
      chunk += chunk_bytes_;
      --remaining;
    }
  }
}

std::byte* NodeArena::FirstChunk(size_t i) const {
  // The + kCacheLine - 1 slack of every slab lets the first chunk be aligned
  // manually — make_unique<std::byte[]> only guarantees max_align_t. Keeping
  // the allocation on the standard path (no raw operator new) means
  // sanitizers and the project linter see a plain owned array.
  std::byte* base = slabs_[i].get();
  const auto addr = reinterpret_cast<uintptr_t>(base);
  return base + static_cast<ptrdiff_t>(AlignUp(addr, kCacheLine) - addr);
}

void NodeArena::AddSlab() {
  slabs_.push_back(std::make_unique<std::byte[]>(slab_bytes_ + kCacheLine - 1));
  bump_ = FirstChunk(slabs_.size() - 1);
  bump_remaining_ = chunks_per_slab_;
}

IurTree::Node* NodeArena::Create() {
  if (bump_remaining_ == 0) AddSlab();
  std::byte* chunk = bump_;
  bump_ += chunk_bytes_;
  --bump_remaining_;
  ++node_count_;
  auto* entries = reinterpret_cast<IurTree::Entry*>(chunk + entry_offset_);
  return new (chunk) IurTree::Node(entries, entry_capacity_);
}

}  // namespace rst
