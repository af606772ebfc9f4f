#include "rst/storage/node_size.h"

#include <algorithm>

#include "rst/storage/varint.h"

namespace rst {

namespace {

constexpr uint64_t kRectBytes = 4 * sizeof(double);
constexpr uint64_t kPostingWeightBytes = 2 * sizeof(float);

uint64_t TermsSize(const TermWeight* data, size_t len) {
  uint64_t bytes = VarintLength(len);
  TermId prev = 0;
  for (size_t i = 0; i < len; ++i) {
    bytes += VarintLength(data[i].term - prev) + sizeof(float);
    prev = data[i].term;
  }
  return bytes;
}

uint64_t SummarySize(const SummarySpan& summary) {
  return VarintLength(summary.count) +
         TermsSize(summary.uni.data, summary.uni.len) +
         TermsSize(summary.intr.data, summary.intr.len);
}

}  // namespace

NodeSizes MeasureNode(const std::vector<SizedEntry>& entries,
                      const std::vector<SizedCluster>& clusters,
                      bool clustered) {
  NodeSizes sizes;
  sizes.record_bytes = 1 + VarintLength(entries.size());
  // One (term, entry) key per posting; sorted, they are the inverted file's
  // order: terms ascending, each term's postings by entry index.
  std::vector<uint64_t> postings;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SizedEntry& e = entries[i];
    sizes.record_bytes += kRectBytes +
                          VarintLength(e.id == 0xFFFFFFFFu ? 0 : e.id + 1) +
                          VarintLength(e.summary.count);
    for (uint32_t t = 0; t < e.summary.uni.len; ++t) {
      postings.push_back(uint64_t{e.summary.uni.data[t].term} << 32 | i);
    }
  }
  std::sort(postings.begin(), postings.end());

  uint64_t terms = 0;
  uint64_t bytes = 0;
  TermId prev_term = 0;
  for (size_t run = 0; run < postings.size();) {
    const TermId term = static_cast<TermId>(postings[run] >> 32);
    size_t end = run;
    uint32_t prev_entry = 0;
    for (; end < postings.size() && postings[end] >> 32 == term; ++end) {
      const uint32_t entry = static_cast<uint32_t>(postings[end]);
      bytes += VarintLength(entry - prev_entry) + kPostingWeightBytes;
      prev_entry = entry;
    }
    bytes += VarintLength(term - prev_term) + VarintLength(end - run);
    prev_term = term;
    ++terms;
    run = end;
  }
  sizes.invfile_bytes = VarintLength(terms) + bytes;

  if (clustered) {
    for (const SizedEntry& e : entries) {
      sizes.invfile_bytes += VarintLength(e.cluster_count);
      for (uint32_t c = 0; c < e.cluster_count; ++c) {
        const SizedCluster& cluster = clusters[e.cluster_begin + c];
        sizes.invfile_bytes +=
            VarintLength(cluster.id) + SummarySize(cluster.summary);
      }
    }
  }
  return sizes;
}

size_t TermVectorEncodedSize(const TermVector& vec) {
  return TermsSize(vec.entries().data(), vec.size());
}

}  // namespace rst
