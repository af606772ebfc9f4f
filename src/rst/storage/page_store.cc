#include "rst/storage/page_store.h"

#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

namespace {

/// Process-wide page-store write counters; handles are cached so the
/// per-call cost is one relaxed atomic add.
struct PageStoreMetrics {
  obs::Counter writes;
  obs::Counter pages_written;

  static const PageStoreMetrics& Get() {
    static const PageStoreMetrics* metrics = [] {
      auto* m = new PageStoreMetrics();
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m->writes = registry.GetCounter(obs::names::kPageStoreWrites);
      m->pages_written = registry.GetCounter(obs::names::kPageStorePagesWritten);
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

PageHandle PageStore::Write(const std::string& payload) {
  PageHandle handle;
  handle.first_page = static_cast<PageId>(pages_.size());
  handle.bytes = static_cast<uint32_t>(payload.size());
  handle.num_pages =
      static_cast<uint32_t>((payload.size() + kPageSize - 1) / kPageSize);
  if (handle.num_pages == 0) handle.num_pages = 1;  // empty payloads pin a page
  for (uint32_t i = 0; i < handle.num_pages; ++i) {
    const size_t begin = i * kPageSize;
    const size_t len = std::min(kPageSize, payload.size() - std::min(
                                               begin, payload.size()));
    std::string page = payload.substr(std::min(begin, payload.size()), len);
    page.resize(kPageSize, '\0');
    pages_.push_back(std::move(page));
  }
  payload_bytes_ += payload.size();
  const PageStoreMetrics& metrics = PageStoreMetrics::Get();
  metrics.writes.Increment();
  metrics.pages_written.Add(handle.num_pages);
  return handle;
}

Status PageStore::Read(const PageHandle& handle, std::string* out,
                       IoStats* stats) const {
  if (!handle.valid() ||
      handle.first_page + handle.num_pages > pages_.size()) {
    return Status::OutOfRange("page handle outside store");
  }
  out->clear();
  out->reserve(handle.bytes);
  for (uint32_t i = 0; i < handle.num_pages && out->size() < handle.bytes;
       ++i) {
    const std::string& page = pages_[handle.first_page + i];
    const size_t want = std::min(kPageSize, handle.bytes - out->size());
    out->append(page.data(), want);
  }
  if (out->size() != handle.bytes) {
    return Status::Corruption("short page read");
  }
  if (stats != nullptr) stats->AddPayloadRead(handle.bytes);
  return Status::Ok();
}

}  // namespace rst
