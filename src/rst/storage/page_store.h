#ifndef RST_STORAGE_PAGE_STORE_H_
#define RST_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rst/common/status.h"
#include "rst/storage/io_stats.h"

namespace rst {

using PageId = uint32_t;

/// A handle to a contiguous payload stored in the page store.
struct PageHandle {
  PageId first_page = 0;
  uint32_t num_pages = 0;
  uint32_t bytes = 0;

  bool valid() const { return num_pages > 0; }
};

/// Append-only simulated disk of 4 KiB pages. Index structures serialize
/// their node payloads and inverted files here. Searches never read it: they
/// charge the simulated I/O cost of a node from its page handles
/// (FrozenTree::ChargeAccess); Read serves tests and benchmarks that decode
/// the stored bytes. The backing memory is real — sizes reported by the
/// benchmarks are byte-accurate.
class PageStore {
 public:
  static constexpr size_t kPageSize = IoStats::kPageSize;

  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Appends `payload`, padding the final page. Never fails (memory-backed).
  PageHandle Write(const std::string& payload);

  /// Reads the payload for `handle` into `*out`, charging `stats` (if
  /// non-null) one payload read of handle.bytes.
  Status Read(const PageHandle& handle, std::string* out,
              IoStats* stats) const;

  size_t num_pages() const { return pages_.size(); }
  uint64_t TotalBytes() const { return pages_.size() * kPageSize; }
  uint64_t PayloadBytes() const { return payload_bytes_; }

 private:
  std::vector<std::string> pages_;
  uint64_t payload_bytes_ = 0;
};

}  // namespace rst

#endif  // RST_STORAGE_PAGE_STORE_H_
