// Microbenchmarks for the storage substrate: varint codecs and posting-list
// encode/decode.

#include <benchmark/benchmark.h>

#include "rst/common/rng.h"
#include "rst/storage/codec.h"
#include "rst/storage/varint.h"

namespace rst {
namespace {

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> (rng.Next() % 48);
  for (auto _ : state) {
    std::string buf;
    buf.reserve(values.size() * 10);
    for (uint64_t v : values) PutVarint64(&buf, v);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  Rng rng(2);
  std::string buf;
  for (int i = 0; i < 1024; ++i) PutVarint64(&buf, rng.Next() >> 20);
  for (auto _ : state) {
    size_t offset = 0;
    uint64_t value = 0;
    while (offset < buf.size()) {
      // rst-lint: allow(unchecked-status) benchmark hot loop; decoding valid bytes cannot fail
      (void)GetVarint64(buf, &offset, &value);
      benchmark::DoNotOptimize(value);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintDecode);

InvertedFile MakeInvFile(Rng* rng, size_t terms, size_t postings) {
  InvertedFile file;
  for (size_t t = 0; t < terms; ++t) {
    auto& list = file[static_cast<TermId>(t * 3)];
    for (size_t p = 0; p < postings; ++p) {
      list.push_back({static_cast<uint32_t>(p),
                      static_cast<float>(rng->Uniform(0.1, 1.0)),
                      static_cast<float>(rng->Uniform(0.0, 0.1))});
    }
  }
  return file;
}

void BM_InvertedFileEncode(benchmark::State& state) {
  Rng rng(3);
  const InvertedFile file =
      MakeInvFile(&rng, static_cast<size_t>(state.range(0)), 32);
  for (auto _ : state) {
    std::string buf;
    EncodeInvertedFile(file, &buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_InvertedFileEncode)->Arg(16)->Arg(256);

void BM_InvertedFileDecode(benchmark::State& state) {
  Rng rng(4);
  const InvertedFile file =
      MakeInvFile(&rng, static_cast<size_t>(state.range(0)), 32);
  std::string buf;
  EncodeInvertedFile(file, &buf);
  for (auto _ : state) {
    size_t offset = 0;
    InvertedFile out;
    // rst-lint: allow(unchecked-status) benchmark hot loop; decoding valid bytes cannot fail
    (void)DecodeInvertedFile(buf, &offset, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_InvertedFileDecode)->Arg(16)->Arg(256);

}  // namespace
}  // namespace rst
