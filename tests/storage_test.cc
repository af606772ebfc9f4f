#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"
#include "rst/obs/metrics.h"
#include "rst/storage/io_stats.h"
#include "rst/storage/node_size.h"
#include "rst/storage/varint.h"

namespace rst {
namespace {

TEST(VarintTest, RoundTripEdgeValues) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    size_t off = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf, &off, &decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(VarintTest, TruncationIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1234567890123ull);
  buf.resize(buf.size() - 1);
  size_t off = 0;
  uint64_t v = 0;
  EXPECT_EQ(GetVarint64(buf, &off, &v).code(), StatusCode::kCorruption);
}

TEST(VarintTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 0x1FFFFFFFFull);
  size_t off = 0;
  uint32_t v = 0;
  EXPECT_EQ(GetVarint32(buf, &off, &v).code(), StatusCode::kCorruption);
}

TEST(VarintTest, FloatAndDoubleRoundTrip) {
  std::string buf;
  PutFloat(&buf, 3.25f);
  PutDouble(&buf, -1.5e300);
  size_t off = 0;
  float f = 0;
  double d = 0;
  ASSERT_TRUE(GetFloat(buf, &off, &f).ok());
  ASSERT_TRUE(GetDouble(buf, &off, &d).ok());
  EXPECT_EQ(f, 3.25f);
  EXPECT_EQ(d, -1.5e300);
}

TermVector Terms(std::vector<TermWeight> entries) {
  return TermVector::FromSorted(std::move(entries));
}

// The size function against lengths counted by hand from the node format
// (DESIGN.md §3.5): one-byte varints below 128, two bytes from 128.
TEST(NodeSizeTest, TermVectorBytesCountedByHand) {
  EXPECT_EQ(TermVectorEncodedSize(TermVector()), 1u);
  // count 1 | Δ1: 1+4 | Δ8: 1+4 | Δ191: 2+4
  EXPECT_EQ(TermVectorEncodedSize(
                Terms({{1, 2.0f}, {9, 1.0f}, {200, 0.5f}})),
            1u + 5u + 5u + 6u);
}

TEST(NodeSizeTest, LeafBytesCountedByHand) {
  const TextSummary a = TextSummary::FromDoc(Terms({{3, 1.0f}, {17, 2.0f}}));
  const TextSummary b = TextSummary::FromDoc(Terms({{3, 0.5f}}));
  const std::vector<SizedEntry> entries = {{0, AsSpan(a), 0, 1},
                                           {200, AsSpan(b), 1, 0}};
  const std::vector<SizedCluster> clusters = {{5, AsSpan(a)}};

  const NodeSizes plain = MeasureNode(entries, clusters, false);
  // leaf flag 1 | count 1 | per entry: rect 32, id + 1, object count 1.
  EXPECT_EQ(plain.record_bytes, 1u + 1u + (32u + 1u + 1u) + (32u + 2u + 1u));
  // #terms 1 | term 3: Δ3 1, #postings 1, (Δ0 1 + 8), (Δ1 1 + 8)
  //          | term 17: Δ14 1, #postings 1, (Δ0 1 + 8)
  EXPECT_EQ(plain.invfile_bytes, 1u + (1u + 1u + 9u + 9u) + (1u + 1u + 9u));

  // Clustered: per entry #clusters, then per cluster its id and summary
  // (count 1, then uni and intr: 1 + 5 + 5 each). Entry b has none.
  const NodeSizes ciur = MeasureNode(entries, clusters, true);
  EXPECT_EQ(ciur.record_bytes, plain.record_bytes);
  EXPECT_EQ(ciur.invfile_bytes,
            plain.invfile_bytes + (1u + 1u + 1u + 11u + 11u) + 1u);
}

TEST(NodeSizeTest, SubtreeEntryAndEmptyNode) {
  const NodeSizes empty = MeasureNode({}, {}, true);
  EXPECT_EQ(empty.record_bytes, 2u);  // leaf flag, count 0
  EXPECT_EQ(empty.invfile_bytes, 1u);  // #terms 0; no entry, no cluster run

  TextSummary subtree = TextSummary::FromDoc(Terms({{130, 1.0f}}));
  subtree.count = 300;
  const NodeSizes one =
      MeasureNode({{IurTree::kNoObject, AsSpan(subtree), 0, 0}}, {}, false);
  // A subtree entry stores id 0 (1 byte) and its object count 300 (2).
  EXPECT_EQ(one.record_bytes, 1u + 1u + 32u + 1u + 2u);
  // #terms 1 | Δ130 2, #postings 1, (Δ0 1 + 8)
  EXPECT_EQ(one.invfile_bytes, 1u + 2u + 1u + 9u);
}

TEST(IoStatsTest, BlockRoundingAndTotal) {
  IoStats stats;
  stats.AddNodeRead();
  stats.AddPayloadRead(1);
  stats.AddPayloadRead(IoStats::kPageSize);
  stats.AddPayloadRead(IoStats::kPageSize + 1);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_EQ(stats.payload_blocks, 1u + 1u + 2u);
  EXPECT_EQ(stats.TotalIos(), 5u);
  IoStats other;
  other.AddNodeRead();
  stats += other;
  EXPECT_EQ(stats.node_reads, 2u);
  stats.Reset();
  EXPECT_EQ(stats.TotalIos(), 0u);
}

TEST(IoStatsTest, PayloadBlockCeilEdgeCases) {
  IoStats stats;
  stats.AddPayloadRead(0);  // ceil(0/4096) = 0: no block charged
  EXPECT_EQ(stats.payload_blocks, 0u);
  EXPECT_EQ(stats.payload_bytes, 0u);
  stats.AddPayloadRead(4096);  // exactly one page
  EXPECT_EQ(stats.payload_blocks, 1u);
  stats.AddPayloadRead(4097);  // one byte over: two pages
  EXPECT_EQ(stats.payload_blocks, 3u);
  EXPECT_EQ(stats.payload_bytes, 4096u + 4097u);
}

TEST(IoStatsTest, ToStringFormatsAllFields) {
  IoStats stats;
  EXPECT_EQ(stats.ToString(), "IoStats{nodes=0, blocks=0, bytes=0, total=0}");
  stats.AddNodeRead();
  stats.AddNodeRead();
  stats.AddPayloadRead(4097);
  EXPECT_EQ(stats.ToString(),
            "IoStats{nodes=2, blocks=2, bytes=4097, total=4}");
}

TEST(IoStatsTest, PublishBridgesFieldsToRegistry) {
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  IoStats stats;
  stats.AddNodeRead();
  stats.AddPayloadRead(IoStats::kPageSize + 1);
  // rst-lint: allow(metric-name-literal) scratch prefix; this test pins Publish() expansion itself
  stats.Publish("test.io");
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("test.io.node_reads"), 1u);
  EXPECT_EQ(delta.counters.at("test.io.payload_blocks"), 2u);
  EXPECT_EQ(delta.counters.at("test.io.payload_bytes"), IoStats::kPageSize + 1);
}

// ---------------------------------------------------------------------------
// Pinned index sizes. Every I/O number (1 node read + ceil(bytes/4096) per
// opened inverted file) and every index-size number derives from the node
// format's lengths, so the lengths are pinned here as literals: IndexBytes()
// and a digest of every node's inverted-file length, for IUR- and CIUR-trees
// over fixed seeds of the three generators. The literals were recorded from
// the byte encoder that MeasureNode replaced (the lengths of really encoded
// nodes); a change to the size arithmetic that moves any length fails here.

/// FNV-1a over the nodes' inverted-file lengths, in stack preorder.
uint64_t InvfileDigest(const IurTree& tree) {
  uint64_t h = 1469598103934665603ULL;
  std::vector<const IurTree::Node*> stack = {tree.root()};
  while (!stack.empty()) {
    const IurTree::Node* node = stack.back();
    stack.pop_back();
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (node->invfile_bytes >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
    if (!node->leaf) {
      for (const IurTree::Entry& e : node->entries) stack.push_back(e.child);
    }
  }
  return h;
}

struct PinnedSizes {
  uint64_t index_bytes;
  uint64_t invfile_digest;
};

void ExpectPinnedSizes(const Dataset& d, const PinnedSizes& iur,
                       const PinnedSizes& ciur) {
  const IurTree plain = IurTree::BuildFromDataset(d, {});
  EXPECT_EQ(plain.IndexBytes(), iur.index_bytes) << "IUR";
  EXPECT_EQ(InvfileDigest(plain), iur.invfile_digest) << "IUR";

  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  copts.outlier_threshold = 0.1;
  const std::vector<uint32_t> cluster_of =
      ClusterDocuments(docs, copts).assignment;
  const IurTree clustered = IurTree::BuildFromDataset(d, {}, &cluster_of);
  EXPECT_EQ(clustered.IndexBytes(), ciur.index_bytes) << "CIUR";
  EXPECT_EQ(InvfileDigest(clustered), ciur.invfile_digest) << "CIUR";
}

TEST(PinnedSizesTest, GeoNamesLike) {
  GeoNamesLikeConfig config;
  config.num_objects = 3000;
  config.seed = 21;
  ExpectPinnedSizes(GenGeoNamesLike(config, {Weighting::kTfIdf, 0.1}),
                    {402731, 4044612260287458941ULL},
                    {673146, 18238890600016957675ULL});
}

TEST(PinnedSizesTest, YelpLike) {
  YelpLikeConfig config;
  config.num_objects = 300;
  config.seed = 22;
  ExpectPinnedSizes(GenYelpLike(config, {Weighting::kTfIdf, 0.1}),
                    {643763, 6551795149307562495ULL},
                    {1259729, 9436768045657620502ULL});
}

TEST(PinnedSizesTest, FlickrLike) {
  FlickrLikeConfig config;
  config.num_objects = 3000;
  config.seed = 23;
  ExpectPinnedSizes(GenFlickrLike(config, {Weighting::kTfIdf, 0.1}),
                    {455676, 3887102198771309977ULL},
                    {797385, 9497025808786030071ULL});
}

}  // namespace
}  // namespace rst
