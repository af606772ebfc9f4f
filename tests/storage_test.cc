#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rst/common/rng.h"
#include "rst/obs/metrics.h"
#include "rst/storage/codec.h"
#include "rst/storage/io_stats.h"
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

TEST(CodecTest, TermVectorRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TermWeight> entries;
    TermId t = 0;
    const size_t n = rng.UniformInt(uint64_t{40});
    for (size_t i = 0; i < n; ++i) {
      t += 1 + static_cast<TermId>(rng.UniformInt(uint64_t{1000}));
      entries.push_back({t, static_cast<float>(rng.Uniform(0.001, 9.0))});
    }
    const TermVector vec = TermVector::FromSorted(std::move(entries));
    std::string buf;
    EncodeTermVector(vec, &buf);
    EXPECT_EQ(buf.size(), TermVectorEncodedSize(vec));
    size_t off = 0;
    TermVector out;
    ASSERT_TRUE(DecodeTermVector(buf, &off, &out).ok());
    EXPECT_EQ(out, vec);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(CodecTest, TextSummaryRoundTrip) {
  TextSummary s;
  s.count = 17;
  s.uni = TermVector::FromUnsorted({{1, 2.0f}, {9, 1.0f}});
  s.intr = TermVector::FromUnsorted({{9, 0.5f}});
  std::string buf;
  EncodeTextSummary(AsSpan(s), &buf);
  size_t off = 0;
  TextSummary out;
  ASSERT_TRUE(DecodeTextSummary(buf, &off, &out).ok());
  EXPECT_EQ(out.count, 17u);
  EXPECT_EQ(out.uni, s.uni);
  EXPECT_EQ(out.intr, s.intr);
}

TEST(CodecTest, InvertedFileRoundTrip) {
  InvertedFile file;
  file[3] = {{0, 1.0f, 0.5f}, {4, 2.0f, 0.0f}};
  file[17] = {{2, 0.25f, 0.25f}};
  std::string buf;
  EncodeInvertedFile(file, &buf);
  EXPECT_EQ(buf.size(), InvertedFileEncodedSize(file));
  size_t off = 0;
  InvertedFile out;
  ASSERT_TRUE(DecodeInvertedFile(buf, &off, &out).ok());
  EXPECT_EQ(out, file);
}

TEST(CodecTest, CorruptedInvertedFileFailsCleanly) {
  InvertedFile file;
  file[3] = {{0, 1.0f, 0.5f}};
  std::string buf;
  EncodeInvertedFile(file, &buf);
  buf.resize(buf.size() / 2);
  size_t off = 0;
  InvertedFile out;
  EXPECT_FALSE(DecodeInvertedFile(buf, &off, &out).ok());
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

}  // namespace
}  // namespace rst
