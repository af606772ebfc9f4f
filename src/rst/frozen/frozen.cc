#include "rst/frozen/frozen.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/simd/simd.h"
#include "rst/storage/node_size.h"
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

FrozenTree FrozenTree::Freeze(const IurTree& tree) {
  Stopwatch timer;
  FrozenTree out;
  out.size_ = tree.size();
  out.clustered_ = tree.clustered();

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
    out.node_invfile_bytes_.push_back(frame.node->invfile_bytes);
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
  out.index_bytes_ = tree.IndexBytes();

  const FrozenMetrics& metrics = FrozenMetrics::Get();
  metrics.freezes.Increment();
  metrics.freeze_ms.Set(timer.ElapsedMillis());
  return out;
}

void FrozenTree::MeasureNodes() {
  node_invfile_bytes_.resize(num_nodes());
  index_bytes_ = 0;
  std::vector<SizedEntry> entries;
  std::vector<SizedCluster> clusters;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    entries.clear();
    clusters.clear();
    const uint32_t begin = node_entry_begin_[n];
    for (uint32_t e = begin; e < begin + node_entry_count_[n]; ++e) {
      entries.push_back({entry_id_[e], Summary(e),
                         static_cast<uint32_t>(clusters.size()),
                         NumClusters(e)});
      for (uint32_t c = 0; c < NumClusters(e); ++c) {
        clusters.push_back({ClusterId(e, c), ClusterSummary(e, c)});
      }
    }
    const NodeSizes sizes = MeasureNode(entries, clusters, clustered_);
    node_invfile_bytes_[n] = static_cast<uint32_t>(sizes.invfile_bytes);
    index_bytes_ += sizes.record_bytes + sizes.invfile_bytes;
  }
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
  stats->AddPayloadRead(node_invfile_bytes_[node]);
}

std::string FrozenTree::SerializeToString() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutVarint32(&out, kFormatVersion);
  uint8_t flags = 0;
  if (clustered_) flags |= 1;
  flags |= 2;  // v1's "payloads" bit: always set, and ignored on load
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

  // CheckInvariants, split where load recomputes the norms: the slices they
  // are computed from are validated first.
  status = out.CheckStructure();
  if (!status.ok()) return status;
  out.RecomputeNorms();
  status = out.CheckSummaries();
  if (!status.ok()) return status;
  out.MeasureNodes();
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

Status FrozenTree::CheckMatchesDataset(const Dataset& dataset) const {
  const size_t num_objects = dataset.size();
  if (size_ != num_objects) {
    return Status::InvalidArgument(
        "frozen index holds " + std::to_string(size_) +
        " objects but the dataset has " + std::to_string(num_objects) +
        "; load the snapshot with the dataset it was built from");
  }
  std::vector<uint8_t> seen(num_objects, 0);
  for (uint32_t e = 0; e < num_entries(); ++e) {
    if (!IsObject(e)) continue;
    const uint32_t id = entry_id_[e];
    if (id >= num_objects) {
      return Status::InvalidArgument(
          "frozen index holds object id " + std::to_string(id) +
          ", outside the dataset's " + std::to_string(num_objects) +
          " objects");
    }
    const StObject& object = dataset.object(id);
    const std::vector<TermWeight>& doc = object.doc.entries();
    const auto is_doc = [&doc](const TermSpan& span) {
      return span.len == doc.size() &&
             std::equal(doc.begin(), doc.end(), span.data);
    };
    const SummarySpan summary = Summary(e);
    if (!(entry_rect_[e] == Rect::FromPoint(object.loc)) ||
        !is_doc(summary.uni) || !is_doc(summary.intr)) {
      return Status::InvalidArgument(
          "frozen index's object " + std::to_string(id) +
          " has another location or document than the dataset's; load the "
          "snapshot with the dataset it was built from");
    }
    if (seen[id]++ != 0) {
      return Status::InvalidArgument("frozen index holds object " +
                                     std::to_string(id) + " twice");
    }
  }
  return Status::Ok();
}

namespace {

/// "frozen index: node N, entry I: " — every entry-level violation names the
/// node, the entry's index within it and then the broken rule.
Status EntryCorruption(uint32_t node, uint32_t index, const std::string& rule) {
  return Status::Corruption("frozen index: node " + std::to_string(node) +
                            ", entry " + std::to_string(index) + ": " + rule);
}

/// Folds children's summaries exactly as TextSummary::Merge does — uni the
/// term-wise max, intr the term-wise min with absent and zero terms dropped,
/// counts summed, count-0 summaries skipped — into buffers reused across
/// entries, so the merge check builds no TermVector.
struct SummaryFold {
  std::vector<TermWeight> uni, intr, tmp;
  uint64_t count = 0;  ///< 64-bit: a sum that wraps uint32 must not match

  void Reset() {
    uni.clear();
    intr.clear();
    count = 0;
  }

  void Add(const SummaryRef& s, const TermWeight* pool) {
    if (s.count == 0) return;
    const TermWeight* su = pool + s.uni.offset;
    const TermWeight* si = pool + s.intr.offset;
    if (count == 0) {
      uni.assign(su, su + s.uni.len);
      intr.assign(si, si + s.intr.len);
    } else {
      const simd::Kernels& kernels = simd::Active();
      tmp.resize(uni.size() + s.uni.len);
      tmp.resize(kernels.union_max(uni.data(), uni.size(), su, s.uni.len,
                                   tmp.data()));
      uni.swap(tmp);
      tmp.resize(std::min<size_t>(intr.size(), s.intr.len));
      tmp.resize(kernels.intersect_min(intr.data(), intr.size(), si,
                                       s.intr.len, tmp.data()));
      intr.swap(tmp);
    }
    count += s.count;
  }

  /// Whether `s` is the fold of at least one summary added since Reset.
  bool Matches(const SummaryRef& s, const TermWeight* pool) const {
    return count != 0 && s.count == count && s.uni.len == uni.size() &&
           std::equal(uni.begin(), uni.end(), pool + s.uni.offset) &&
           s.intr.len == intr.size() &&
           std::equal(intr.begin(), intr.end(), pool + s.intr.offset);
  }
};

}  // namespace

Status FrozenTree::CheckInvariants() const {
  const Status status = CheckStructure();
  return status.ok() ? CheckSummaries() : status;
}

Status FrozenTree::CheckStructure() const {
  if (num_nodes() == 0) return Status::Corruption("frozen index: no root");
  // Entries tile [0, num_entries) in node order (the layout walk appends a
  // popped node's entries consecutively).
  uint32_t expected_begin = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (node_entry_begin_[n] != expected_begin) {
      return Status::Corruption("frozen index: entries do not tile");
    }
    if (node_entry_count_[n] > num_entries() - expected_begin) {
      return Status::Corruption("frozen index: entry span overflow");
    }
    if (n > 0 && node_entry_count_[n] == 0) {
      return Status::Corruption("frozen index: node " + std::to_string(n) +
                                ": non-root node without entries");
    }
    expected_begin += node_entry_count_[n];
  }
  if (expected_begin != num_entries()) {
    return Status::Corruption("frozen index: dangling entries");
  }

  // Slices sorted, weights non-negative (NaN rejected too) and the
  // intersection dominated by the union: the merge check and the kernels
  // rely on all three, and without domination MinSim could exceed MaxSim.
  const auto check_summary = [this](const SummaryRef& s) -> std::string {
    const TermSlice* slices[] = {&s.uni, &s.intr};
    for (const TermSlice* slice : slices) {
      if (slice->offset > pool_.size() ||
          slice->len > pool_.size() - slice->offset) {
        return "summary slice out of pool";
      }
      for (uint32_t i = 0; i < slice->len; ++i) {
        const TermWeight& w = pool_[slice->offset + i];
        if (i > 0 && pool_[slice->offset + i - 1].term >= w.term) {
          return "unsorted summary slice";
        }
        if (!(w.weight >= 0.0f)) return "negative or NaN summary weight";
      }
    }
    const TermWeight* uni = pool_.data() + s.uni.offset;
    for (uint32_t i = 0; i < s.intr.len; ++i) {
      const TermWeight& w = pool_[s.intr.offset + i];
      if (!ContainsSpan(uni, s.uni.len, w.term) ||
          w.weight > GetSpan(uni, s.uni.len, w.term)) {
        return "intersection not dominated by union for term " +
               std::to_string(w.term);
      }
    }
    if (s.count == 0 && (s.uni.len != 0 || s.intr.len != 0)) {
      return "empty summary carries terms";
    }
    return "";
  };

  // Children pop after their parent in the layout walk, so a node's depth is
  // set (from its parent) before the node itself is visited.
  std::vector<uint32_t> depth(num_nodes(), 0);
  std::vector<uint8_t> child_seen(num_nodes(), 0);
  uint32_t leaf_depth = kNoNode;
  uint64_t objects = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (IsLeaf(n)) {
      if (leaf_depth == kNoNode) leaf_depth = depth[n];
      if (depth[n] != leaf_depth) {
        return Status::Corruption(
            "frozen index: node " + std::to_string(n) + ": leaf at depth " +
            std::to_string(depth[n]) + ", another at " +
            std::to_string(leaf_depth));
      }
    }
    for (uint32_t i = 0; i < node_entry_count_[n]; ++i) {
      const uint32_t e = node_entry_begin_[n] + i;
      if (entry_level_[e] != depth[n]) {
        return EntryCorruption(n, i,
                               "level " + std::to_string(entry_level_[e]) +
                                   " at depth " + std::to_string(depth[n]));
      }
      if (IsLeaf(n)) {
        if (entry_child_[e] != kNoNode) {
          return EntryCorruption(n, i, "leaf entry with child");
        }
        if (entry_id_[e] == kNoObject) {
          return EntryCorruption(n, i, "leaf entry without object");
        }
        ++objects;
      } else {
        const uint32_t child = entry_child_[e];
        if (child == kNoNode) {
          return EntryCorruption(n, i, "internal entry without child");
        }
        // A child index <= its parent's means a cycle or a forged link.
        if (child <= n || child >= num_nodes()) {
          return EntryCorruption(n, i, "child index out of order");
        }
        if (child_seen[child]++ != 0) {
          return EntryCorruption(n, i, "child node with two parents");
        }
        depth[child] = depth[n] + 1;
      }
      std::string rule = check_summary(entry_summary_[e]);
      if (!rule.empty()) return EntryCorruption(n, i, rule);
      const uint64_t cluster_end =
          static_cast<uint64_t>(entry_cluster_begin_[e]) +
          entry_cluster_count_[e];
      if (cluster_end > clusters_.size()) {
        return EntryCorruption(n, i, "cluster run out of range");
      }
      for (uint32_t c = 0; c < NumClusters(e); ++c) {
        const ClusterRef& cluster = clusters_[entry_cluster_begin_[e] + c];
        if (c > 0 && ClusterId(e, c - 1) >= cluster.cluster_id) {
          return EntryCorruption(n, i, "cluster ids not strictly ascending");
        }
        rule = check_summary(cluster.summary);
        if (!rule.empty()) {
          return EntryCorruption(
              n, i, "cluster " + std::to_string(cluster.cluster_id) + ": " +
                        rule);
        }
      }
    }
  }
  for (uint32_t n = 1; n < num_nodes(); ++n) {
    if (child_seen[n] == 0) {
      return Status::Corruption("frozen index: orphan node " +
                                std::to_string(n));
    }
  }
  if (objects != size_) {
    return Status::Corruption("frozen index: object count mismatch");
  }
  return Status::Ok();
}

Status FrozenTree::CheckSummaries() const {
  const TermWeight* pool = pool_.data();
  const auto same_slice = [pool](const TermSlice& a, const TermSlice& b) {
    return a.len == b.len &&
           std::equal(pool + a.offset, pool + a.offset + a.len,
                      pool + b.offset);
  };
  const auto norms_ok = [pool](const SummaryRef& s) {
    return s.uni_norm_sq == NormSquaredSpan(pool + s.uni.offset, s.uni.len) &&
           s.intr_norm_sq == NormSquaredSpan(pool + s.intr.offset, s.intr.len);
  };
  SummaryFold fold;
  std::vector<uint32_t> cursor;  // per child entry: next cluster to merge
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    for (uint32_t i = 0; i < node_entry_count_[n]; ++i) {
      const uint32_t e = node_entry_begin_[n] + i;
      const SummaryRef& summary = entry_summary_[e];
      bool norms = norms_ok(summary);
      for (uint32_t k = 0; norms && k < NumClusters(e); ++k) {
        norms = norms_ok(clusters_[entry_cluster_begin_[e] + k].summary);
      }
      if (!norms) {
        return EntryCorruption(n, i, "cached norm disagrees with weights");
      }
      if (IsLeaf(n)) {
        if (summary.count != 1) {
          return EntryCorruption(n, i, "leaf entry count " +
                                           std::to_string(summary.count));
        }
        if (!same_slice(summary.intr, summary.uni)) {
          return EntryCorruption(n, i, "leaf intersection differs from union");
        }
        if (NumClusters(e) != (clustered_ ? 1u : 0u)) {
          return EntryCorruption(n, i, "leaf carries " +
                                           std::to_string(NumClusters(e)) +
                                           " clusters");
        }
        const SummaryRef* cluster =
            clustered_ ? &clusters_[entry_cluster_begin_[e]].summary : nullptr;
        if (cluster != nullptr &&
            (cluster->count != 1 || !same_slice(cluster->uni, summary.uni) ||
             !same_slice(cluster->intr, summary.intr))) {
          return EntryCorruption(n, i, "leaf cluster differs from the leaf");
        }
        continue;
      }

      const uint32_t begin = node_entry_begin_[Child(e)];
      const uint32_t end = begin + node_entry_count_[Child(e)];
      Rect mbr;
      fold.Reset();
      for (uint32_t c = begin; c < end; ++c) {
        mbr.Extend(entry_rect_[c]);
        fold.Add(entry_summary_[c], pool);
      }
      if (!(entry_rect_[e] == mbr)) {
        return EntryCorruption(n, i, "stale MBR " + entry_rect_[e].ToString() +
                                         ", children span " + mbr.ToString());
      }
      if (!fold.Matches(summary, pool)) {
        return EntryCorruption(
            n, i, "summary is not the merge of its children (count " +
                      std::to_string(summary.count) + ", children sum to " +
                      std::to_string(fold.count) + ")");
      }
      // Each cluster is the merge of the children's clusters under its id;
      // a child cluster the run skips leaves its cursor short.
      cursor.assign(end - begin, 0);
      uint64_t cluster_total = 0;
      for (uint32_t k = 0; k < NumClusters(e); ++k) {
        const ClusterRef& cluster = clusters_[entry_cluster_begin_[e] + k];
        fold.Reset();
        for (uint32_t c = begin; c < end; ++c) {
          uint32_t& next = cursor[c - begin];
          if (next < NumClusters(c) &&
              ClusterId(c, next) == cluster.cluster_id) {
            fold.Add(clusters_[entry_cluster_begin_[c] + next++].summary, pool);
          }
        }
        if (!fold.Matches(cluster.summary, pool)) {
          return EntryCorruption(n, i,
                                 "stale summary for cluster " +
                                     std::to_string(cluster.cluster_id));
        }
        cluster_total += cluster.summary.count;
      }
      for (uint32_t c = begin; c < end; ++c) {
        if (cursor[c - begin] != NumClusters(c)) {
          return EntryCorruption(
              n, i, "child cluster " +
                        std::to_string(ClusterId(c, cursor[c - begin])) +
                        " missing from the run");
        }
      }
      if (clustered_ && cluster_total != summary.count) {
        return EntryCorruption(n, i, "cluster counts sum to " +
                                         std::to_string(cluster_total) +
                                         ", entry covers " +
                                         std::to_string(summary.count));
      }
    }
  }
  return Status::Ok();
}

}  // namespace frozen
}  // namespace rst
