#ifndef RST_STORAGE_BUFFER_POOL_H_
#define RST_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>

#include "rst/common/mutex.h"
#include "rst/common/status.h"
#include "rst/common/thread_annotations.h"
#include "rst/obs/metrics.h"
#include "rst/storage/io_stats.h"
#include "rst/storage/page_store.h"

namespace rst {

/// LRU buffer pool over a PageStore. Payloads are cached whole (a payload is
/// the unit of access for tree nodes and inverted files); capacity is counted
/// in pages. Fetch returns a shared payload that remains valid after
/// eviction. Pinned payloads are never evicted.
///
/// Thread safety: safe for concurrent readers (Fetch/Pin/Unpin from any
/// number of threads). The hit path takes only a shared lock — recency is an
/// atomic stamp per entry (from a global atomic clock) instead of a linked
/// list, so hits never mutate shared structure. Misses read the PageStore
/// outside any lock, then insert under the exclusive lock; two threads
/// missing the same payload concurrently may both read the store (each
/// counted as a miss — accounting stays consistent: hits + misses ==
/// accesses), after which one copy is adopted. Eviction picks the unpinned
/// entry with the smallest stamp, which is exactly the list-LRU victim, so
/// single-threaded behavior (victim order, admit-over-capacity when all
/// pinned, capacity 0 disabling caching) is unchanged. IoStats passed to
/// Fetch/Pin are charged per caller and are not shared between threads.
///
/// The pool records no spans or phases itself: the searcher's node read
/// (FrozenTreeView::Charge) already wraps every Fetch in a
/// `storage.read_node` span and the kIo phase. Fill latency lands in the
/// storage.buffer_pool.fill_ms histogram.
class BufferPool {
 public:
  /// `store` must outlive the pool. `capacity_pages` == 0 disables caching
  /// (every Fetch is a miss and charges I/O).
  BufferPool(const PageStore* store, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches the payload behind `handle`. Misses read from the PageStore and
  /// charge `stats`; hits charge nothing (tracked in stats->cache_hits).
  Result<std::shared_ptr<const std::string>> Fetch(const PageHandle& handle,
                                                   IoStats* stats)
      RST_EXCLUDES(mu_);

  /// Pins/unpins a cached payload. Pinning a non-resident payload fetches it.
  Status Pin(const PageHandle& handle, IoStats* stats) RST_EXCLUDES(mu_);
  Status Unpin(const PageHandle& handle) RST_EXCLUDES(mu_);

  size_t capacity_pages() const { return capacity_pages_; }
  size_t used_pages() const {
    // rst-atomics: monotonic-ish accounting counter read for reporting; no
    // other data is published through it, so relaxed is sufficient.
    return used_pages_.load(std::memory_order_relaxed);
  }
  size_t resident_payloads() const RST_EXCLUDES(mu_);
  // rst-atomics: hits/misses/evictions are independent statistics counters;
  // readers tolerate instantaneous skew between them, so all three loads are
  // relaxed.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses); 0 before the first access.
  double hit_rate() const {
    const uint64_t h = hits();
    const uint64_t m = misses();
    return h + m == 0
               ? 0.0
               : static_cast<double>(h) / static_cast<double>(h + m);
  }

  void Clear() RST_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const std::string> payload;
    uint32_t num_pages = 0;
    std::atomic<uint32_t> pin_count{0};
    /// Recency stamp from clock_; larger = more recent. Atomic so the
    /// shared-lock hit path can refresh it.
    std::atomic<uint64_t> last_access{0};
  };

  uint64_t NextStamp() {
    // rst-atomics: the clock only needs to produce distinct, roughly
    // monotonic stamps for LRU victim ranking; cross-thread ordering of the
    // increments is irrelevant, so relaxed.
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void EvictUntilFitsLocked(size_t incoming_pages) RST_REQUIRES(mu_);

  const PageStore* store_;
  const size_t capacity_pages_;
  std::atomic<size_t> used_pages_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> clock_{0};
  mutable SharedMutex mu_;
  /// Entries are heap-allocated so their atomics keep a stable address
  /// across map rehashes. Guarded by mu_ (shared for lookup, exclusive for
  /// insert/erase); the per-entry atomics are the one mutation the hit path
  /// performs under the shared lock.
  std::unordered_map<PageId, std::unique_ptr<Entry>> entries_
      RST_GUARDED_BY(mu_);
  /// Registry handles (storage.buffer_pool.*), shared by all pools.
  obs::Counter hits_counter_;
  obs::Counter misses_counter_;
  obs::Counter evictions_counter_;
  obs::Gauge hit_rate_gauge_;
  obs::HistogramRef fill_ms_;
};

}  // namespace rst

#endif  // RST_STORAGE_BUFFER_POOL_H_
