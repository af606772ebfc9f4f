#include "rst/storage/io_stats.h"

#include <cstdio>

#include "rst/obs/json.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

std::string IoStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "IoStats{nodes=%llu, blocks=%llu, bytes=%llu, total=%llu}",
                static_cast<unsigned long long>(node_reads),
                static_cast<unsigned long long>(payload_blocks),
                static_cast<unsigned long long>(payload_bytes),
                static_cast<unsigned long long>(TotalIos()));
  return buf;
}

void IoStats::Publish(const std::string& prefix) const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter(prefix + obs::names::kSuffixNodeReads).Add(node_reads);
  registry.GetCounter(prefix + obs::names::kSuffixPayloadBlocks).Add(payload_blocks);
  registry.GetCounter(prefix + obs::names::kSuffixPayloadBytes).Add(payload_bytes);
}

void IoStats::AppendJson(obs::JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("node_reads");
  writer->Uint(node_reads);
  writer->Key("payload_blocks");
  writer->Uint(payload_blocks);
  writer->Key("payload_bytes");
  writer->Uint(payload_bytes);
  writer->Key("total_ios");
  writer->Uint(TotalIos());
  writer->EndObject();
}

}  // namespace rst
