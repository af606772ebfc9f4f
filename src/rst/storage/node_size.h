#ifndef RST_STORAGE_NODE_SIZE_H_
#define RST_STORAGE_NODE_SIZE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"

namespace rst {

/// Byte lengths of the index node format, computed by arithmetic alone: no
/// node is ever encoded. Ids and counts are LEB128 varints (VarintLength),
/// term and entry ids are delta-coded, weights are float32 and rects four
/// float64s. These lengths drive the simulated I/O accounting and the index
/// size (DESIGN.md §3.5).

/// One child entry of a node as MeasureNode reads it. A CIUR entry's
/// per-cluster summaries are the run [cluster_begin, cluster_begin +
/// cluster_count) of the node's cluster list.
struct SizedEntry {
  uint32_t id = 0;      ///< object id; 0xFFFFFFFF for a subtree entry
  SummarySpan summary;  ///< summary.count is the subtree object count
  uint32_t cluster_begin = 0;
  uint32_t cluster_count = 0;
};

struct SizedCluster {
  uint32_t id = 0;
  SummarySpan summary;
};

/// The two parts of one node. They sum to the node's share of IndexBytes,
/// and opening the node charges its inverted file's length.
struct NodeSizes {
  /// What an R-tree page holds: the leaf flag, the entry count, then per
  /// entry its rect, id + 1 (0 for a subtree entry) and object count:
  /// 1 + VarintLength(n) + Σ(32 + VarintLength(id+1 or 0) +
  /// VarintLength(count)).
  uint64_t record_bytes = 0;
  /// The MIR-tree inverted file — per term, ascending, the <entry, maxw,
  /// minw> postings of the entries whose union holds it:
  /// VarintLength(#terms) + Σ_terms(VarintLength(Δterm) +
  /// VarintLength(#postings) + Σ_postings(VarintLength(Δentry) + 8)).
  /// A clustered tree appends, per entry, VarintLength(#clusters) and per
  /// cluster VarintLength(id) plus its summary (the count, then the uni and
  /// intr term vectors as TermVectorEncodedSize counts them).
  uint64_t invfile_bytes = 0;
};

/// The single definition of a node's lengths: the pointer tree measures
/// each node with it at build time, and a loaded snapshot measures again.
NodeSizes MeasureNode(const std::vector<SizedEntry>& entries,
                      const std::vector<SizedCluster>& clusters,
                      bool clustered);

/// Bytes of one term vector: VarintLength(#terms) + Σ(VarintLength(Δterm) +
/// 4).
size_t TermVectorEncodedSize(const TermVector& vec);

}  // namespace rst

#endif  // RST_STORAGE_NODE_SIZE_H_
