#include "rst/frozen/frozen.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"
#include "rst/storage/varint.h"

namespace rst {
namespace frozen {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'T', 'F'};

struct FrozenMetrics {
  obs::Counter freezes;
  obs::Counter loads;
  obs::Gauge freeze_ms;
  obs::Gauge load_ms;

  static const FrozenMetrics& Get() {
    static const FrozenMetrics* metrics = [] {
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      auto* m = new FrozenMetrics();
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m->freezes = registry.GetCounter(obs::names::kFrozenFreezes);
      m->loads = registry.GetCounter(obs::names::kFrozenLoads);
      m->freeze_ms = registry.GetGauge(obs::names::kFrozenFreezeLastMs);
      m->load_ms = registry.GetGauge(obs::names::kFrozenLoadLastMs);
      return m;
    }();
    return *metrics;
  }
};

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  dst->append(buf, 8);
}

Status GetFixed64(const std::string& src, size_t* offset, uint64_t* value) {
  if (*offset + 8 > src.size()) {
    return Status::Corruption("truncated fixed64");
  }
  std::memcpy(value, src.data() + *offset, 8);
  *offset += 8;
  return Status::Ok();
}

uint64_t Fnv1a64(const char* data, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void PutSlice(std::string* dst, const TermSlice& s) {
  PutVarint64(dst, s.offset);
  PutVarint32(dst, s.len);
}

Status GetSlice(const std::string& src, size_t* offset, TermSlice* s) {
  Status status = GetVarint64(src, offset, &s->offset);
  if (!status.ok()) return status;
  return GetVarint32(src, offset, &s->len);
}

void PutSummaryRef(std::string* dst, const SummaryRef& s) {
  PutSlice(dst, s.uni);
  PutSlice(dst, s.intr);
  PutVarint32(dst, s.count);
}

Status GetSummaryRef(const std::string& src, size_t* offset, SummaryRef* s) {
  Status status = GetSlice(src, offset, &s->uni);
  if (!status.ok()) return status;
  status = GetSlice(src, offset, &s->intr);
  if (!status.ok()) return status;
  return GetVarint32(src, offset, &s->count);
}

/// Appends a term vector's entries to the pool and returns its slice.
TermSlice AppendToPool(const TermVector& vec, std::vector<TermWeight>* pool) {
  TermSlice slice;
  slice.offset = pool->size();
  slice.len = static_cast<uint32_t>(vec.size());
  pool->insert(pool->end(), vec.entries().begin(), vec.entries().end());
  return slice;
}

}  // namespace

FrozenTree FrozenTree::Freeze(const IurTree& tree, obs::QueryTrace* trace) {
  Stopwatch timer;
  obs::TraceSpan freeze_span(trace, obs::names::kSpanFrozenFreeze);
  FrozenTree out;
  out.size_ = tree.size();
  out.clustered_ = tree.clustered();
  out.has_payloads_ = tree.options().store_payloads;

  // The norm caches are copied from the source vectors; a summary whose intr
  // equals its uni (every leaf document) shares one pool slice.
  auto make_ref = [&out](const TextSummary& s) {
    SummaryRef ref;
    ref.count = s.count;
    ref.uni = AppendToPool(s.uni, &out.pool_);
    ref.uni_norm_sq = s.uni.NormSquared();
    if (s.intr.entries() == s.uni.entries()) {
      ref.intr = ref.uni;
      ref.intr_norm_sq = ref.uni_norm_sq;
    } else {
      ref.intr = AppendToPool(s.intr, &out.pool_);
      ref.intr_norm_sq = s.intr.NormSquared();
    }
    return ref;
  };

  // Layout walk: a stack preorder (children pushed in reverse so they pop in
  // entry order; a popped node's entries get consecutive indices). Entry
  // index i carries explain id i + 1, a function of tree structure alone.
  if (trace != nullptr) trace->Enter(obs::names::kSpanFrozenLayout);
  struct Frame {
    const IurTree::Node* node;
    uint32_t level;
  };
  std::vector<Frame> stack = {{tree.root(), 0}};
  std::unordered_map<const IurTree::Node*, uint32_t> node_index;
  std::vector<std::pair<uint32_t, const IurTree::Node*>> child_links;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    for (size_t i = frame.node->entries.size(); i-- > 0;) {
      const IurTree::Entry& e = frame.node->entries[i];
      if (!e.is_object()) stack.push_back({e.child, frame.level + 1});
    }
    const uint32_t node_id = out.num_nodes();
    node_index.emplace(frame.node, node_id);
    out.node_leaf_.push_back(frame.node->leaf ? 1 : 0);
    out.node_entry_begin_.push_back(out.num_entries());
    out.node_entry_count_.push_back(
        static_cast<uint32_t>(frame.node->entries.size()));
    out.node_record_.push_back(frame.node->record_handle);
    out.node_invfile_.push_back(frame.node->invfile_handle);
    for (const IurTree::Entry& e : frame.node->entries) {
      const uint32_t entry_id = out.num_entries();
      out.entry_rect_.push_back(e.rect);
      out.entry_id_.push_back(e.id);
      out.entry_child_.push_back(kNoNode);  // fixed up once the child pops
      out.entry_level_.push_back(frame.level);
      out.entry_summary_.push_back(make_ref(e.summary));
      out.entry_cluster_begin_.push_back(
          static_cast<uint32_t>(out.clusters_.size()));
      out.entry_cluster_count_.push_back(
          static_cast<uint32_t>(e.clusters.size()));
      for (const auto& [cluster_id, summary] : e.clusters) {
        out.clusters_.push_back({cluster_id, make_ref(summary)});
      }
      if (!e.is_object()) child_links.push_back({entry_id, e.child});
    }
  }
  for (const auto& [entry_id, child] : child_links) {
    out.entry_child_[entry_id] = node_index.at(child);
  }
  if (trace != nullptr) trace->Exit();  // layout

  if (out.has_payloads_) {
    obs::TraceSpan payload_span(trace, obs::names::kSpanFrozenPayloads);
    out.RebuildPayloads();
  }

  const FrozenMetrics& metrics = FrozenMetrics::Get();
  metrics.freezes.Increment();
  metrics.freeze_ms.Set(timer.ElapsedMillis());
  return out;
}

void FrozenTree::SerializeNodePayloads(uint32_t node) {
  const uint32_t begin = node_entry_begin_[node];
  const uint32_t count = node_entry_count_[node];
  if (!IsLeaf(node)) {
    for (uint32_t i = 0; i < count; ++i) {
      SerializeNodePayloads(entry_child_[begin + i]);
    }
  }
  // Same encoder and post-order as IurTree::SerializeNode, so page handles
  // match the source tree exactly.
  std::vector<PayloadEntry> entries;
  std::vector<PayloadCluster> clusters;
  entries.reserve(count);
  for (uint32_t e = begin; e < begin + count; ++e) {
    entries.push_back({entry_rect_[e], entry_id_[e], Summary(e),
                       static_cast<uint32_t>(clusters.size()),
                       NumClusters(e)});
    for (uint32_t c = 0; c < NumClusters(e); ++c) {
      clusters.push_back({ClusterId(e, c), ClusterSummary(e, c)});
    }
  }
  const NodePayload payload =
      EncodeNodePayload(IsLeaf(node), entries, clusters, clustered_);
  node_record_[node] = page_store_->Write(payload.record);
  node_invfile_[node] = page_store_->Write(payload.invfile);
}

void FrozenTree::RebuildPayloads() {
  page_store_ = std::make_unique<PageStore>();
  node_record_.assign(num_nodes(), PageHandle());
  node_invfile_.assign(num_nodes(), PageHandle());
  if (num_nodes() > 0) SerializeNodePayloads(root());
}

void FrozenTree::RecomputeNorms() {
  auto norms = [this](SummaryRef* s) {
    s->uni_norm_sq = NormSquaredSpan(pool_.data() + s->uni.offset, s->uni.len);
    s->intr_norm_sq =
        NormSquaredSpan(pool_.data() + s->intr.offset, s->intr.len);
  };
  for (SummaryRef& s : entry_summary_) norms(&s);
  for (ClusterRef& c : clusters_) norms(&c.summary);
}

void FrozenTree::ChargeAccess(uint32_t node, IoStats* stats) const {
  if (stats == nullptr) return;
  stats->AddNodeRead();
  if (has_payloads_ && node_invfile_[node].valid()) {
    stats->AddPayloadRead(node_invfile_[node].bytes);
  }
}

std::string FrozenTree::SerializeToString() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutVarint32(&out, kFormatVersion);
  uint8_t flags = 0;
  if (clustered_) flags |= 1;
  if (has_payloads_) flags |= 2;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, size_);
  PutVarint32(&out, num_nodes());
  PutVarint32(&out, num_entries());
  PutVarint32(&out, static_cast<uint32_t>(clusters_.size()));
  PutVarint64(&out, pool_.size());
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    out.push_back(static_cast<char>(node_leaf_[n]));
    PutVarint32(&out, node_entry_begin_[n]);
    PutVarint32(&out, node_entry_count_[n]);
  }
  for (uint32_t e = 0; e < num_entries(); ++e) {
    PutDouble(&out, entry_rect_[e].min_x);
    PutDouble(&out, entry_rect_[e].min_y);
    PutDouble(&out, entry_rect_[e].max_x);
    PutDouble(&out, entry_rect_[e].max_y);
    PutVarint32(&out, entry_id_[e] == kNoObject ? 0 : entry_id_[e] + 1);
    PutVarint32(&out, entry_child_[e] == kNoNode ? 0 : entry_child_[e] + 1);
    PutVarint32(&out, entry_level_[e]);
    PutSummaryRef(&out, entry_summary_[e]);
    PutVarint32(&out, entry_cluster_begin_[e]);
    PutVarint32(&out, entry_cluster_count_[e]);
  }
  for (const ClusterRef& c : clusters_) {
    PutVarint32(&out, c.cluster_id);
    PutSummaryRef(&out, c.summary);
  }
  for (const TermWeight& tw : pool_) {
    PutVarint32(&out, tw.term);
    PutFloat(&out, tw.weight);
  }
  PutFixed64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<FrozenTree> FrozenTree::Deserialize(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + 8) {
    return Status::Corruption("frozen index: file too short");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("frozen index: bad magic");
  }
  // Verify the trailing checksum before trusting any field.
  size_t tail = bytes.size() - 8;
  uint64_t stored_checksum = 0;
  {
    size_t off = tail;
    Status status = GetFixed64(bytes, &off, &stored_checksum);
    if (!status.ok()) return status;
  }
  if (Fnv1a64(bytes.data(), tail) != stored_checksum) {
    return Status::Corruption("frozen index: checksum mismatch");
  }

  size_t offset = sizeof(kMagic);
  FrozenTree out;
  uint32_t version = 0;
  Status status = GetVarint32(bytes, &offset, &version);
  if (!status.ok()) return status;
  if (version != kFormatVersion) {
    return Status::InvalidArgument("frozen index: unsupported format version");
  }
  if (offset >= tail) return Status::Corruption("frozen index: truncated");
  const uint8_t flags = static_cast<uint8_t>(bytes[offset++]);
  out.clustered_ = (flags & 1) != 0;
  out.has_payloads_ = (flags & 2) != 0;

  uint32_t num_nodes = 0, num_entries = 0, num_clusters = 0;
  uint64_t pool_size = 0;
  status = GetVarint64(bytes, &offset, &out.size_);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_nodes);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_entries);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_clusters);
  if (!status.ok()) return status;
  status = GetVarint64(bytes, &offset, &pool_size);
  if (!status.ok()) return status;
  // Cheap sanity cap before any reserve: every node/entry/cluster/pool item
  // costs at least one serialized byte, so counts beyond the file size mean
  // corruption (and would otherwise trigger huge allocations).
  const uint64_t total_items = static_cast<uint64_t>(num_nodes) + num_entries +
                               num_clusters + pool_size;
  if (total_items > bytes.size()) {
    return Status::Corruption("frozen index: counts exceed file size");
  }

  out.node_leaf_.reserve(num_nodes);
  out.node_entry_begin_.reserve(num_nodes);
  out.node_entry_count_.reserve(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    if (offset >= tail) return Status::Corruption("frozen index: truncated");
    out.node_leaf_.push_back(static_cast<uint8_t>(bytes[offset++]));
    uint32_t begin = 0, count = 0;
    status = GetVarint32(bytes, &offset, &begin);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &count);
    if (!status.ok()) return status;
    out.node_entry_begin_.push_back(begin);
    out.node_entry_count_.push_back(count);
  }
  out.node_record_.assign(num_nodes, PageHandle());
  out.node_invfile_.assign(num_nodes, PageHandle());

  out.entry_rect_.reserve(num_entries);
  out.entry_id_.reserve(num_entries);
  out.entry_child_.reserve(num_entries);
  out.entry_level_.reserve(num_entries);
  out.entry_summary_.reserve(num_entries);
  out.entry_cluster_begin_.reserve(num_entries);
  out.entry_cluster_count_.reserve(num_entries);
  for (uint32_t e = 0; e < num_entries; ++e) {
    Rect rect;
    status = GetDouble(bytes, &offset, &rect.min_x);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.min_y);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.max_x);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.max_y);
    if (!status.ok()) return status;
    uint32_t id_plus = 0, child_plus = 0, level = 0;
    status = GetVarint32(bytes, &offset, &id_plus);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &child_plus);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &level);
    if (!status.ok()) return status;
    SummaryRef summary;
    status = GetSummaryRef(bytes, &offset, &summary);
    if (!status.ok()) return status;
    uint32_t cluster_begin = 0, cluster_count = 0;
    status = GetVarint32(bytes, &offset, &cluster_begin);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &cluster_count);
    if (!status.ok()) return status;
    out.entry_rect_.push_back(rect);
    out.entry_id_.push_back(id_plus == 0 ? kNoObject : id_plus - 1);
    out.entry_child_.push_back(child_plus == 0 ? kNoNode : child_plus - 1);
    out.entry_level_.push_back(level);
    out.entry_summary_.push_back(summary);
    out.entry_cluster_begin_.push_back(cluster_begin);
    out.entry_cluster_count_.push_back(cluster_count);
  }

  out.clusters_.reserve(num_clusters);
  for (uint32_t c = 0; c < num_clusters; ++c) {
    ClusterRef cluster;
    status = GetVarint32(bytes, &offset, &cluster.cluster_id);
    if (!status.ok()) return status;
    status = GetSummaryRef(bytes, &offset, &cluster.summary);
    if (!status.ok()) return status;
    out.clusters_.push_back(cluster);
  }

  out.pool_.reserve(pool_size);
  for (uint64_t i = 0; i < pool_size; ++i) {
    TermWeight tw;
    status = GetVarint32(bytes, &offset, &tw.term);
    if (!status.ok()) return status;
    status = GetFloat(bytes, &offset, &tw.weight);
    if (!status.ok()) return status;
    out.pool_.push_back(tw);
  }
  if (offset != tail) {
    return Status::Corruption("frozen index: trailing bytes");
  }

  status = out.CheckInvariants();
  if (!status.ok()) return status;
  out.RecomputeNorms();
  if (out.has_payloads_) out.RebuildPayloads();
  return out;
}

Status FrozenTree::Save(const std::string& path) const {
  return WriteStringToFile(path, SerializeToString());
}

Result<FrozenTree> FrozenTree::Load(const std::string& path) {
  Stopwatch timer;
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  Result<FrozenTree> tree = Deserialize(bytes.value());
  if (!tree.ok()) return tree.status();
  const FrozenMetrics& metrics = FrozenMetrics::Get();
  metrics.loads.Increment();
  metrics.load_ms.Set(timer.ElapsedMillis());
  return tree;
}

Status FrozenTree::CheckInvariants() const {
  if (num_nodes() == 0) return Status::Corruption("frozen index: no root");
  if (node_entry_begin_.size() != num_nodes() ||
      node_entry_count_.size() != num_nodes()) {
    return Status::Corruption("frozen index: node array size mismatch");
  }
  // Entries tile [0, num_entries) in node order (the layout walk appends a
  // popped node's entries consecutively).
  uint32_t expected_begin = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (node_entry_begin_[n] != expected_begin) {
      return Status::Corruption("frozen index: entries do not tile");
    }
    if (node_entry_count_[n] >
        num_entries() - expected_begin) {
      return Status::Corruption("frozen index: entry span overflow");
    }
    expected_begin += node_entry_count_[n];
  }
  if (expected_begin != num_entries()) {
    return Status::Corruption("frozen index: dangling entries");
  }
  std::vector<uint8_t> child_seen(num_nodes(), 0);
  uint64_t objects = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    const uint32_t begin = node_entry_begin_[n];
    for (uint32_t i = 0; i < node_entry_count_[n]; ++i) {
      const uint32_t e = begin + i;
      if (IsLeaf(n)) {
        if (entry_child_[e] != kNoNode) {
          return Status::Corruption("frozen index: leaf entry with child");
        }
        if (entry_id_[e] == kNoObject) {
          return Status::Corruption("frozen index: leaf entry without object");
        }
        ++objects;
      } else {
        const uint32_t child = entry_child_[e];
        if (child == kNoNode) {
          return Status::Corruption("frozen index: internal entry w/o child");
        }
        // Children pop after their parent in the layout walk, so a child
        // index <= its parent's means a cycle or a forged link.
        if (child <= n || child >= num_nodes()) {
          return Status::Corruption("frozen index: child index out of order");
        }
        if (child_seen[child]++ != 0) {
          return Status::Corruption("frozen index: node with two parents");
        }
        const uint32_t child_begin = node_entry_begin_[child];
        for (uint32_t j = 0; j < node_entry_count_[child]; ++j) {
          if (entry_level_[child_begin + j] != entry_level_[e] + 1) {
            return Status::Corruption("frozen index: inconsistent levels");
          }
        }
      }
    }
  }
  for (uint32_t n = 1; n < num_nodes(); ++n) {
    if (child_seen[n] == 0) {
      return Status::Corruption("frozen index: orphan node");
    }
  }
  if (objects != size_) {
    return Status::Corruption("frozen index: object count mismatch");
  }
  auto check_ref = [this](const SummaryRef& s) {
    return s.uni.offset + s.uni.len <= pool_.size() &&
           s.intr.offset + s.intr.len <= pool_.size();
  };
  for (const SummaryRef& s : entry_summary_) {
    if (!check_ref(s)) {
      return Status::Corruption("frozen index: summary slice out of pool");
    }
  }
  for (uint32_t e = 0; e < num_entries(); ++e) {
    const uint64_t end = static_cast<uint64_t>(entry_cluster_begin_[e]) +
                         entry_cluster_count_[e];
    if (end > clusters_.size()) {
      return Status::Corruption("frozen index: cluster span out of range");
    }
  }
  for (const ClusterRef& c : clusters_) {
    if (!check_ref(c.summary)) {
      return Status::Corruption("frozen index: cluster slice out of pool");
    }
  }
  // Same bracketing contract IurTree::CheckInvariants enforces: slices sorted,
  // weights non-negative, and the intersection dominated by the union —
  // otherwise the frozen kernels could compute MinSim > MaxSim.
  auto check_summary = [this](const SummaryRef& s) -> Status {
    const TermSlice* slices[] = {&s.uni, &s.intr};
    for (const TermSlice* slice : slices) {
      for (uint32_t i = 0; i < slice->len; ++i) {
        const TermWeight& w = pool_[slice->offset + i];
        if (i > 0 && pool_[slice->offset + i - 1].term >= w.term) {
          return Status::Corruption("frozen index: unsorted summary slice");
        }
        if (w.weight < 0.0f) {
          return Status::Corruption("frozen index: negative summary weight");
        }
      }
    }
    for (uint32_t i = 0; i < s.intr.len; ++i) {
      const TermWeight& w = pool_[s.intr.offset + i];
      if (!ContainsSpan(&pool_[s.uni.offset], s.uni.len, w.term) ||
          w.weight > GetSpan(&pool_[s.uni.offset], s.uni.len, w.term)) {
        return Status::Corruption(
            "frozen index: intersection not dominated by union for term " +
            std::to_string(w.term));
      }
    }
    return Status::Ok();
  };
  for (const SummaryRef& s : entry_summary_) {
    const Status summary_ok = check_summary(s);
    if (!summary_ok.ok()) return summary_ok;
  }
  for (const ClusterRef& c : clusters_) {
    const Status summary_ok = check_summary(c.summary);
    if (!summary_ok.ok()) return summary_ok;
  }
  return Status::Ok();
}

}  // namespace frozen
}  // namespace rst
