#ifndef RST_STORAGE_IO_STATS_H_
#define RST_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace rst {

/// Simulated I/O accounting, following the methodology both papers report:
/// visiting a tree node costs one I/O; loading a node's inverted file (or any
/// serialized payload) costs ceil(bytes / page_size) I/Os. This is the only
/// I/O accounting the project keeps (DESIGN.md §3.5).
struct IoStats {
  uint64_t node_reads = 0;      ///< tree nodes visited (1 I/O each)
  uint64_t payload_blocks = 0;  ///< 4 KiB blocks of posting/payload data read
  uint64_t payload_bytes = 0;   ///< raw payload bytes read

  static constexpr uint64_t kPageSize = 4096;

  uint64_t TotalIos() const { return node_reads + payload_blocks; }

  void AddNodeRead() { ++node_reads; }
  void AddPayloadRead(uint64_t bytes) {
    payload_bytes += bytes;
    payload_blocks += (bytes + kPageSize - 1) / kPageSize;
  }

  void Reset() { *this = IoStats(); }

  IoStats& operator+=(const IoStats& other) {
    node_reads += other.node_reads;
    payload_blocks += other.payload_blocks;
    payload_bytes += other.payload_bytes;
    return *this;
  }

  std::string ToString() const;

  /// Adds these totals to the global metric registry as counters
  /// `<prefix>.node_reads`, `.payload_blocks`, `.payload_bytes` — the
  /// bridge that keeps this struct's public fields intact
  /// while making every consumer's I/O visible in obs snapshots. Call once
  /// per completed operation (per query / per build), not per access.
  void Publish(const std::string& prefix) const;
};

}  // namespace rst

#endif  // RST_STORAGE_IO_STATS_H_
