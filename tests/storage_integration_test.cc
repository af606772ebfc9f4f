// Storage-path integration: the full disk round trip of frozen-index
// payloads through the page store, the simulated I/O charge of a node
// against the bytes actually stored for it, and codec robustness under
// corruption (randomized truncations and byte flips must produce clean
// Status errors, never crashes or hangs).

#include <gtest/gtest.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"

namespace rst {
namespace {

/// The weight of `term` in a sorted term span (0 when absent).
float WeightOf(const TermSpan& span, TermId term) {
  for (uint32_t i = 0; i < span.len; ++i) {
    if (span.data[i].term == term) return span.data[i].weight;
  }
  return 0.0f;
}

/// Reads `node`'s serialized inverted file from the tree's page store,
/// charging `stats`, and decodes it.
Status ReadInvertedFile(const frozen::FrozenTree& tree, uint32_t node,
                        IoStats* stats, InvertedFile* out) {
  std::string bytes;
  const Status read =
      tree.page_store().Read(tree.invfile_handle(node), &bytes, stats);
  if (!read.ok()) return read;
  size_t offset = 0;
  return DecodeInvertedFile(bytes, &offset, out);
}

TEST(StorageIntegrationTest, NodePayloadsRoundTripThroughPageStore) {
  FlickrLikeConfig config;
  config.num_objects = 600;
  config.seed = 4;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  IoStats stats;
  InvertedFile file;
  ASSERT_TRUE(ReadInvertedFile(tree, tree.root(), &stats, &file).ok());
  EXPECT_GE(stats.payload_blocks, 1u);
  EXPECT_FALSE(file.empty());
  // The decoded postings must match the in-memory entry summaries.
  const uint32_t begin = tree.EntryBegin(tree.root());
  for (const auto& [term, postings] : file) {
    for (const Posting& p : postings) {
      ASSERT_LT(p.id, tree.EntryCount(tree.root()));
      const SummarySpan summary = tree.Summary(begin + p.id);
      EXPECT_FLOAT_EQ(p.max_weight, WeightOf(summary.uni, term));
      EXPECT_FLOAT_EQ(p.min_weight, WeightOf(summary.intr, term));
    }
  }
}

TEST(StorageIntegrationTest, WholeTreeScanMatchesSimulatedCharges) {
  FlickrLikeConfig config;
  config.num_objects = 1200;
  config.seed = 5;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  // Reading every node's stored inverted file costs exactly what the
  // search's simulated accounting charges for opening every node.
  IoStats read;
  IoStats charged;
  for (uint32_t node = 0; node < tree.num_nodes(); ++node) {
    InvertedFile file;
    read.AddNodeRead();
    ASSERT_TRUE(ReadInvertedFile(tree, node, &read, &file).ok());
    tree.ChargeAccess(node, &charged);
  }
  EXPECT_EQ(read.node_reads, tree.num_nodes());
  EXPECT_EQ(read.node_reads, charged.node_reads);
  EXPECT_EQ(read.payload_blocks, charged.payload_blocks);
  EXPECT_EQ(read.payload_bytes, charged.payload_bytes);
}

TEST(StorageIntegrationTest, TreeWithoutPayloadsChargesNodeReadsOnly) {
  FlickrLikeConfig config;
  config.num_objects = 100;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  IurTreeOptions options;
  options.store_payloads = false;
  // A snapshot of a tree built without payloads has none to read.
  const frozen::FrozenTree bare =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, options));
  EXPECT_FALSE(bare.has_payloads());
  EXPECT_EQ(bare.IndexBytes(), 0u);
  IoStats stats;
  InvertedFile file;
  EXPECT_FALSE(ReadInvertedFile(bare, bare.root(), &stats, &file).ok());
  bare.ChargeAccess(bare.root(), &stats);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_EQ(stats.payload_blocks, 0u);
  const frozen::FrozenTree stored =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  EXPECT_TRUE(ReadInvertedFile(stored, stored.root(), &stats, &file).ok());
}

// Fuzz-style robustness: decoding arbitrarily corrupted buffers must fail
// cleanly (or succeed on semantically harmless flips), never crash.
TEST(CodecFuzzTest, TruncationsNeverCrash) {
  Rng rng(31);
  InvertedFile file;
  for (TermId t = 0; t < 40; ++t) {
    auto& list = file[t * 7];
    for (uint32_t i = 0; i < 20; ++i) {
      list.push_back({i, static_cast<float>(rng.Uniform(0, 2)),
                      static_cast<float>(rng.Uniform(0, 1))});
    }
  }
  std::string buf;
  EncodeInvertedFile(file, &buf);
  for (size_t cut = 0; cut < buf.size(); cut += 7) {
    std::string truncated = buf.substr(0, cut);
    size_t offset = 0;
    InvertedFile out;
    const Status s = DecodeInvertedFile(truncated, &offset, &out);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;  // always detectably short
  }
}

TEST(CodecFuzzTest, ByteFlipsNeverCrash) {
  Rng rng(37);
  TextSummary summary;
  std::vector<TermWeight> entries;
  for (TermId t = 0; t < 64; ++t) {
    entries.push_back({t * 3, static_cast<float>(rng.Uniform(0.01, 3))});
  }
  summary.uni = TermVector::FromSorted(entries);
  summary.intr = summary.uni;
  summary.count = 64;
  std::string buf;
  EncodeTextSummary(AsSpan(summary), &buf);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = buf;
    const size_t pos = rng.UniformInt(mutated.size());
    mutated[pos] = static_cast<char>(rng.Next() & 0xFF);
    size_t offset = 0;
    TextSummary out;
    // Must terminate and either fail cleanly or produce *some* summary;
    // (weight bytes are raw floats, so many flips decode fine).
    // rst-lint: allow(unchecked-status) fuzz probe: only no-crash matters, both outcomes valid
    (void)DecodeTextSummary(mutated, &offset, &out);
  }
  SUCCEED();
}

TEST(CodecFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng.UniformInt(uint64_t{200}), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next() & 0xFF);
    size_t offset = 0;
    InvertedFile file;
    // rst-lint: allow(unchecked-status) fuzz probe: only no-crash matters, both outcomes valid
    (void)DecodeInvertedFile(garbage, &offset, &file);
    offset = 0;
    TermVector vec;
    // rst-lint: allow(unchecked-status) fuzz probe: only no-crash matters, both outcomes valid
    (void)DecodeTermVector(garbage, &offset, &vec);
  }
  SUCCEED();
}

}  // namespace
}  // namespace rst
