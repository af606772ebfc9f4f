#include "rst/storage/buffer_pool.h"

#include "rst/common/stopwatch.h"
#include "rst/obs/metric_names.h"

namespace rst {

BufferPool::BufferPool(const PageStore* store, size_t capacity_pages)
    : store_(store), capacity_pages_(capacity_pages) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  hits_counter_ = registry.GetCounter(obs::names::kBufferPoolHits);
  misses_counter_ = registry.GetCounter(obs::names::kBufferPoolMisses);
  evictions_counter_ = registry.GetCounter(obs::names::kBufferPoolEvictions);
  hit_rate_gauge_ = registry.GetGauge(obs::names::kBufferPoolHitRate);
  fill_ms_ = registry.GetHistogram(obs::names::kBufferPoolFillMs,
                                   obs::HistogramSpec::LatencyMs());
}

size_t BufferPool::resident_payloads() const {
  ReaderMutexLock lock(&mu_);
  return entries_.size();
}

void BufferPool::EvictUntilFitsLocked(size_t incoming_pages) {
  // rst-atomics: every atomic in this function is accessed with mu_ held
  // exclusively (RST_REQUIRES above), so the mutex provides all ordering;
  // the operations stay relaxed to avoid paying for fences twice.
  while (used_pages_.load(std::memory_order_relaxed) + incoming_pages >
         capacity_pages_) {
    // The unpinned entry with the smallest recency stamp IS the
    // least-recently-used victim the old intrusive list produced.
    auto victim = entries_.end();
    uint64_t victim_stamp = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = *it->second;
      // rst-atomics: see function comment — mu_ held exclusively.
      if (entry.pin_count.load(std::memory_order_relaxed) != 0) continue;
      const uint64_t stamp = entry.last_access.load(std::memory_order_relaxed);
      if (victim == entries_.end() || stamp < victim_stamp) {
        victim = it;
        victim_stamp = stamp;
      }
    }
    if (victim == entries_.end()) break;  // everything pinned; admit over cap
    // rst-atomics: see function comment — mu_ held exclusively.
    used_pages_.fetch_sub(victim->second->num_pages,
                          std::memory_order_relaxed);
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_counter_.Increment();
  }
}

Result<std::shared_ptr<const std::string>> BufferPool::Fetch(
    const PageHandle& handle, IoStats* stats) {
  {
    ReaderMutexLock lock(&mu_);
    auto it = entries_.find(handle.first_page);
    if (it != entries_.end()) {
      Entry& entry = *it->second;
      // rst-atomics: the recency stamp and hit counter publish no payload
      // data — the payload itself is protected by the shared lock — so the
      // hit path's only mutations can stay relaxed.
      entry.last_access.store(NextStamp(), std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hits_counter_.Increment();
      hit_rate_gauge_.Set(hit_rate());
      if (stats != nullptr) stats->AddCacheHit();
      return entry.payload;  // shared_ptr copy under the shared lock
    }
  }
  // rst-atomics: statistics counter; ordering against other counters is
  // irrelevant (hits + misses == accesses holds because each access bumps
  // exactly one of them).
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses_counter_.Increment();
  hit_rate_gauge_.Set(hit_rate());
  // The store read happens outside any pool lock so concurrent misses fill
  // in parallel; a payload raced in by another thread is adopted below.
  auto payload = std::make_shared<std::string>();
  Stopwatch fill_timer;
  const Status s = store_->Read(handle, payload.get(), stats);
  fill_ms_.Record(fill_timer.ElapsedMillis());
  if (!s.ok()) return s;
  std::shared_ptr<const std::string> shared = std::move(payload);
  if (capacity_pages_ == 0) return shared;  // caching disabled
  WriterMutexLock lock(&mu_);
  auto it = entries_.find(handle.first_page);
  if (it != entries_.end()) {
    // Lost the fill race: keep the resident copy (it may be pinned).
    // rst-atomics: stamp refresh under the exclusive lock; relaxed as above.
    it->second->last_access.store(NextStamp(), std::memory_order_relaxed);
    return it->second->payload;
  }
  EvictUntilFitsLocked(handle.num_pages);
  auto entry = std::make_unique<Entry>();
  entry->payload = shared;
  entry->num_pages = handle.num_pages;
  // rst-atomics: entry is not yet reachable from entries_ and used_pages_ is
  // pure accounting; the exclusive mu_ below orders publication.
  entry->last_access.store(NextStamp(), std::memory_order_relaxed);
  used_pages_.fetch_add(handle.num_pages, std::memory_order_relaxed);
  entries_.emplace(handle.first_page, std::move(entry));
  return shared;
}

Status BufferPool::Pin(const PageHandle& handle, IoStats* stats) {
  for (;;) {
    {
      ReaderMutexLock lock(&mu_);
      auto it = entries_.find(handle.first_page);
      if (it != entries_.end()) {
        // rst-atomics: pin_count is consulted for eviction only under the
        // exclusive lock, which synchronizes with this shared-lock holder
        // via the mutex itself; the counter op can stay relaxed.
        it->second->pin_count.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      }
    }
    auto fetched = Fetch(handle, stats);
    if (!fetched.ok()) return fetched.status();
    if (capacity_pages_ == 0) {
      return Status::FailedPrecondition("cannot pin with caching disabled");
    }
    // Retry: the fetched payload could have been evicted before we pin it.
  }
}

Status BufferPool::Unpin(const PageHandle& handle) {
  ReaderMutexLock lock(&mu_);
  auto it = entries_.find(handle.first_page);
  if (it == entries_.end()) {
    return Status::FailedPrecondition("unpin of non-pinned payload");
  }
  // CAS so concurrent unpins cannot drive the count below zero.
  // rst-atomics: same reasoning as Pin — eviction reads pin_count under the
  // exclusive lock, so the CAS needs no acquire/release of its own.
  uint32_t pins = it->second->pin_count.load(std::memory_order_relaxed);
  do {
    if (pins == 0) {
      return Status::FailedPrecondition("unpin of non-pinned payload");
    }
    // rst-atomics: relaxed CAS -- same note as the initial load above.
  } while (!it->second->pin_count.compare_exchange_weak(
      pins, pins - 1, std::memory_order_relaxed));
  return Status::Ok();
}

void BufferPool::Clear() {
  WriterMutexLock lock(&mu_);
  entries_.clear();
  // rst-atomics: reset under the exclusive lock; accounting only.
  used_pages_.store(0, std::memory_order_relaxed);
}

}  // namespace rst
