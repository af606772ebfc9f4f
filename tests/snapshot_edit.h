#ifndef TESTS_SNAPSHOT_EDIT_H_
#define TESTS_SNAPSHOT_EDIT_H_

// Byte-level edits of a serialized FrozenTree snapshot (format v1, DESIGN.md
// §10.3) for tests that tamper with a snapshot on disk. ResealTrailer
// rewrites the FNV-1a64 trailer after an edit, so the edit reaches field
// parsing and the deep check instead of being caught by the checksum.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace rst {
namespace snapshot_edit {

inline void ResealTrailer(std::string* bytes) {
  const size_t tail = bytes->size() - 8;
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < tail; ++i) {
    h ^= static_cast<unsigned char>((*bytes)[i]);
    h *= 1099511628211ULL;
  }
  std::memcpy(&(*bytes)[tail], &h, 8);
}

/// Byte offsets of the fields the tamper tests edit, found by walking a
/// valid v1 snapshot.
struct Layout {
  std::vector<size_t> entry_rect;   ///< entry e's four doubles
  std::vector<size_t> entry_count;  ///< entry e's summary count varint
  std::vector<uint64_t> entry_uni;  ///< entry e's uni slice start (pool index)
  std::vector<size_t> pool_weight;  ///< pool item i's float weight
};

inline uint64_t ReadVarint(const std::string& bytes, size_t* pos) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<unsigned char>(bytes[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

inline Layout ReadLayout(const std::string& bytes) {
  Layout layout;
  size_t pos = 4;  // magic
  ReadVarint(bytes, &pos);  // version
  ++pos;                    // flags
  ReadVarint(bytes, &pos);  // object count
  const uint64_t nodes = ReadVarint(bytes, &pos);
  const uint64_t entries = ReadVarint(bytes, &pos);
  const uint64_t clusters = ReadVarint(bytes, &pos);
  const uint64_t pool = ReadVarint(bytes, &pos);
  for (uint64_t n = 0; n < nodes; ++n) {
    ++pos;  // leaf flag
    ReadVarint(bytes, &pos);
    ReadVarint(bytes, &pos);
  }
  for (uint64_t e = 0; e < entries; ++e) {
    layout.entry_rect.push_back(pos);
    pos += 4 * sizeof(double);
    for (int i = 0; i < 3; ++i) ReadVarint(bytes, &pos);  // id, child, level
    layout.entry_uni.push_back(ReadVarint(bytes, &pos));
    for (int i = 0; i < 3; ++i) ReadVarint(bytes, &pos);  // uni len, intr
    layout.entry_count.push_back(pos);
    for (int i = 0; i < 3; ++i) ReadVarint(bytes, &pos);  // count, clusters
  }
  for (uint64_t c = 0; c < clusters; ++c) {
    for (int i = 0; i < 6; ++i) ReadVarint(bytes, &pos);  // id, summary
  }
  for (uint64_t i = 0; i < pool; ++i) {
    ReadVarint(bytes, &pos);  // term
    layout.pool_weight.push_back(pos);
    pos += sizeof(float);
  }
  return layout;
}

}  // namespace snapshot_edit
}  // namespace rst

#endif  // TESTS_SNAPSHOT_EDIT_H_
