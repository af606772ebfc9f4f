#ifndef RST_STORAGE_CODEC_H_
#define RST_STORAGE_CODEC_H_

#include <map>
#include <string>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/status.h"
#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"

namespace rst {

/// Serialization of the spatial-textual index payloads. Sizes produced here
/// drive the simulated I/O accounting, so the formats are genuinely compact:
/// delta-coded varint term/document ids and raw float32 weights.

/// --- Term vectors ---
void EncodeTermVector(const TermVector& vec, std::string* dst);
Status DecodeTermVector(const std::string& src, size_t* offset,
                        TermVector* out);

/// --- Text summaries (IUR-tree node payloads) ---
/// Same bytes as EncodeTermVector for each side: count, then uni, then intr.
void EncodeTextSummary(const SummarySpan& summary, std::string* dst);
Status DecodeTextSummary(const std::string& src, size_t* offset,
                         TextSummary* out);

/// --- Posting lists (MIR-tree node inverted files) ---
/// One posting per child entry of a node, carrying the max and min weight of
/// the term in the child's subtree (the 2016 paper's <d, maxw, minw> tuples).
struct Posting {
  uint32_t id = 0;
  float max_weight = 0.0f;
  float min_weight = 0.0f;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.id == b.id && a.max_weight == b.max_weight &&
           a.min_weight == b.min_weight;
  }
};

/// An inverted file mapping terms to posting lists, as attached to each
/// IR-/MIR-tree node.
using InvertedFile = std::map<TermId, std::vector<Posting>>;

void EncodePostingList(const std::vector<Posting>& postings, std::string* dst);
Status DecodePostingList(const std::string& src, size_t* offset,
                         std::vector<Posting>* out);

void EncodeInvertedFile(const InvertedFile& file, std::string* dst);
Status DecodeInvertedFile(const std::string& src, size_t* offset,
                          InvertedFile* out);

/// --- Index nodes (IUR-/CIUR-tree and its frozen snapshot) ---
/// One child entry of a node as EncodeNodePayload reads it. A CIUR entry's
/// per-cluster summaries are the run [cluster_begin, cluster_begin +
/// cluster_count) of the node's cluster list.
struct PayloadEntry {
  Rect rect;
  uint32_t id = 0;      ///< object id; 0xFFFFFFFF for a subtree entry
  SummarySpan summary;  ///< summary.count is the subtree object count
  uint32_t cluster_begin = 0;
  uint32_t cluster_count = 0;
};

struct PayloadCluster {
  uint32_t id = 0;
  SummarySpan summary;
};

/// The two encoded parts of one node. Trees keep only their lengths: the
/// record and inverted-file bytes sum to IndexBytes, and the inverted file's
/// length is what opening the node charges (DESIGN.md §3.5).
struct NodePayload {
  /// What an R-tree page holds: the leaf flag, then per entry its rect,
  /// id + 1 (0 for a subtree entry) and object count.
  std::string record;
  /// Per-term <entry, maxw, minw> postings (the MIR-tree content), then —
  /// when the tree is clustered — each entry's cluster summaries.
  std::string invfile;
};

/// The single node encoder: the pointer tree and the frozen snapshot both
/// feed it, so their node sizes are identical. Overwrites `*out`, so a
/// caller encoding many nodes reuses one buffer.
void EncodeNodePayload(bool leaf, const std::vector<PayloadEntry>& entries,
                       const std::vector<PayloadCluster>& clusters,
                       bool clustered, NodePayload* out);

/// Serialized size (bytes) without materializing the buffer.
size_t TermVectorEncodedSize(const TermVector& vec);
size_t InvertedFileEncodedSize(const InvertedFile& file);

}  // namespace rst

#endif  // RST_STORAGE_CODEC_H_
