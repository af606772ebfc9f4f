// Storage-path integration: the full disk round trip of frozen-index
// payloads through the buffer pool, cache-hit accounting, and codec
// robustness under corruption (randomized truncations and byte flips must
// produce clean Status errors, never crashes or hangs).

#include <gtest/gtest.h>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"
#include "rst/storage/buffer_pool.h"

namespace rst {
namespace {

/// The weight of `term` in a sorted term span (0 when absent).
float WeightOf(const TermSpan& span, TermId term) {
  for (uint32_t i = 0; i < span.len; ++i) {
    if (span.data[i].term == term) return span.data[i].weight;
  }
  return 0.0f;
}

TEST(StorageIntegrationTest, NodePayloadsRoundTripThroughBufferPool) {
  FlickrLikeConfig config;
  config.num_objects = 600;
  config.seed = 4;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  BufferPool pool(&tree.page_store(), /*capacity_pages=*/64);
  IoStats stats;

  // Cold read of the root: charges node + payload blocks.
  InvertedFile file;
  ASSERT_TRUE(tree.ReadNodePayload(tree.root(), &pool, &stats, &file).ok());
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

  // Warm read: zero new payload blocks, one cache hit.
  const uint64_t blocks_before = stats.payload_blocks;
  InvertedFile again;
  ASSERT_TRUE(tree.ReadNodePayload(tree.root(), &pool, &stats, &again).ok());
  EXPECT_EQ(stats.payload_blocks, blocks_before);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(again.size(), file.size());
}

TEST(StorageIntegrationTest, WholeTreeScanWithSmallPool) {
  FlickrLikeConfig config;
  config.num_objects = 1200;
  config.seed = 5;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  BufferPool pool(&tree.page_store(), /*capacity_pages=*/4);  // heavy eviction
  IoStats stats;
  for (uint32_t node = 0; node < tree.num_nodes(); ++node) {
    InvertedFile file;
    ASSERT_TRUE(tree.ReadNodePayload(node, &pool, &stats, &file).ok());
  }
  EXPECT_EQ(stats.node_reads, tree.num_nodes());
  // Tiny pool: essentially everything misses.
  EXPECT_GE(pool.misses(), tree.num_nodes() - pool.capacity_pages());
}

TEST(StorageIntegrationTest, UnfinalizedStorageRejected) {
  FlickrLikeConfig config;
  config.num_objects = 100;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  IurTree tree = IurTree::BuildFromDataset(d, {});
  tree.Insert(100, Point{1, 1}, &d.object(0).doc);  // dirties storage
  // A snapshot of dirty storage carries no payloads to read.
  const frozen::FrozenTree dirty = frozen::FrozenTree::Freeze(tree);
  BufferPool pool(&dirty.page_store(), 8);
  IoStats stats;
  InvertedFile file;
  EXPECT_EQ(dirty.ReadNodePayload(dirty.root(), &pool, &stats, &file).code(),
            StatusCode::kFailedPrecondition);
  tree.FinalizeStorage();
  const frozen::FrozenTree finalized = frozen::FrozenTree::Freeze(tree);
  BufferPool fresh(&finalized.page_store(), 8);
  EXPECT_TRUE(
      finalized.ReadNodePayload(finalized.root(), &fresh, &stats, &file).ok());
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
  EncodeTextSummary(summary, &buf);
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
