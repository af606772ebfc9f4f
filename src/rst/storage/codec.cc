#include "rst/storage/codec.h"

#include <algorithm>
#include <cmath>

#include "rst/storage/varint.h"

namespace rst {

namespace {

void EncodeTermSpan(const TermSpan& span, std::string* dst) {
  PutVarint32(dst, span.len);
  TermId prev = 0;
  for (uint32_t i = 0; i < span.len; ++i) {
    PutVarint32(dst, span.data[i].term - prev);
    PutFloat(dst, span.data[i].weight);
    prev = span.data[i].term;
  }
}

}  // namespace

void EncodeTermVector(const TermVector& vec, std::string* dst) {
  EncodeTermSpan(AsSpan(vec), dst);
}

Status DecodeTermVector(const std::string& src, size_t* offset,
                        TermVector* out) {
  uint32_t count = 0;
  Status s = GetVarint32(src, offset, &count);
  if (!s.ok()) return s;
  std::vector<TermWeight> entries;
  // Never trust a decoded count for allocation: each entry needs >= 5 bytes.
  entries.reserve(std::min<size_t>(count, (src.size() - *offset) / 5 + 1));
  TermId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    float weight = 0.0f;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &weight);
    if (!s.ok()) return s;
    if (i > 0 && delta == 0) return Status::Corruption("duplicate term id");
    if (weight < 0.0f || !std::isfinite(weight)) {
      return Status::Corruption("invalid term weight");
    }
    prev += delta;
    entries.push_back({prev, weight});
  }
  *out = TermVector::FromSorted(std::move(entries));
  return Status::Ok();
}

void EncodeTextSummary(const SummarySpan& summary, std::string* dst) {
  PutVarint32(dst, summary.count);
  EncodeTermSpan(summary.uni, dst);
  EncodeTermSpan(summary.intr, dst);
}

Status DecodeTextSummary(const std::string& src, size_t* offset,
                         TextSummary* out) {
  Status s = GetVarint32(src, offset, &out->count);
  if (!s.ok()) return s;
  s = DecodeTermVector(src, offset, &out->uni);
  if (!s.ok()) return s;
  return DecodeTermVector(src, offset, &out->intr);
}

void EncodePostingList(const std::vector<Posting>& postings,
                       std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(postings.size()));
  uint32_t prev = 0;
  for (const Posting& p : postings) {
    PutVarint32(dst, p.id - prev);
    PutFloat(dst, p.max_weight);
    PutFloat(dst, p.min_weight);
    prev = p.id;
  }
}

Status DecodePostingList(const std::string& src, size_t* offset,
                         std::vector<Posting>* out) {
  uint32_t count = 0;
  Status s = GetVarint32(src, offset, &count);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(std::min<size_t>(count, (src.size() - *offset) / 9 + 1));
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    Posting p;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &p.max_weight);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &p.min_weight);
    if (!s.ok()) return s;
    prev += delta;
    p.id = prev;
    out->push_back(p);
  }
  return Status::Ok();
}

void EncodeInvertedFile(const InvertedFile& file, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(file.size()));
  TermId prev = 0;
  for (const auto& [term, postings] : file) {
    PutVarint32(dst, term - prev);
    EncodePostingList(postings, dst);
    prev = term;
  }
}

Status DecodeInvertedFile(const std::string& src, size_t* offset,
                          InvertedFile* out) {
  uint32_t terms = 0;
  Status s = GetVarint32(src, offset, &terms);
  if (!s.ok()) return s;
  out->clear();
  TermId prev = 0;
  for (uint32_t i = 0; i < terms; ++i) {
    uint32_t delta = 0;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    prev += delta;
    std::vector<Posting> postings;
    s = DecodePostingList(src, offset, &postings);
    if (!s.ok()) return s;
    (*out)[prev] = std::move(postings);
  }
  return Status::Ok();
}

void EncodeNodePayload(bool leaf, const std::vector<PayloadEntry>& entries,
                       const std::vector<PayloadCluster>& clusters,
                       bool clustered, NodePayload* out) {
  out->record.clear();
  out->invfile.clear();
  out->record.push_back(leaf ? 1 : 0);
  PutVarint32(&out->record, static_cast<uint32_t>(entries.size()));
  for (const PayloadEntry& e : entries) {
    PutDouble(&out->record, e.rect.min_x);
    PutDouble(&out->record, e.rect.min_y);
    PutDouble(&out->record, e.rect.max_x);
    PutDouble(&out->record, e.rect.max_y);
    PutVarint32(&out->record, e.id == 0xFFFFFFFFu ? 0 : e.id + 1);
    PutVarint32(&out->record, e.summary.count);
  }

  InvertedFile file;
  for (size_t i = 0; i < entries.size(); ++i) {
    const TermSpan& uni = entries[i].summary.uni;
    const TermSpan& intr = entries[i].summary.intr;
    for (uint32_t t = 0; t < uni.len; ++t) {
      file[uni.data[t].term].push_back(
          {static_cast<uint32_t>(i), uni.data[t].weight,
           GetSpan(intr.data, intr.len, uni.data[t].term)});
    }
  }
  EncodeInvertedFile(file, &out->invfile);
  if (clustered) {
    for (const PayloadEntry& e : entries) {
      PutVarint32(&out->invfile, e.cluster_count);
      for (uint32_t c = 0; c < e.cluster_count; ++c) {
        const PayloadCluster& cluster = clusters[e.cluster_begin + c];
        PutVarint32(&out->invfile, cluster.id);
        EncodeTextSummary(cluster.summary, &out->invfile);
      }
    }
  }
}

size_t TermVectorEncodedSize(const TermVector& vec) {
  size_t bytes = VarintLength(vec.size());
  TermId prev = 0;
  for (const TermWeight& e : vec.entries()) {
    bytes += VarintLength(e.term - prev) + sizeof(float);
    prev = e.term;
  }
  return bytes;
}

size_t InvertedFileEncodedSize(const InvertedFile& file) {
  size_t bytes = VarintLength(file.size());
  TermId prev = 0;
  for (const auto& [term, postings] : file) {
    bytes += VarintLength(term - prev);
    bytes += VarintLength(postings.size());
    uint32_t prev_id = 0;
    for (const Posting& p : postings) {
      bytes += VarintLength(p.id - prev_id) + 2 * sizeof(float);
      prev_id = p.id;
    }
    prev = term;
  }
  return bytes;
}

}  // namespace rst
