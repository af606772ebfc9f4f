// NodeArena unit and stress tests: chunk alignment, destructor discipline
// (the arena destroys every node it created), and — because every tree owns
// a private arena — parallel build+destroy of many trees, which the CI
// sanitizer jobs run under ASan and TSan to shake out lifetime races.

#include "rst/iurtree/node_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "rst/data/generators.h"
#include "rst/iurtree/iurtree.h"

namespace rst {
namespace {

TEST(NodeArena, CreateAlignsAndCounts) {
  NodeArena arena(33);
  EXPECT_EQ(arena.node_count(), 0u);
  EXPECT_EQ(arena.entry_capacity(), 33u);
  EXPECT_EQ(arena.chunk_bytes() % 64, 0u);

  for (int i = 0; i < 1000; ++i) {
    IurTree::Node* node = arena.Create();
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(node) % 64, 0u)
        << "node " << i << " not cache-line aligned";
    EXPECT_TRUE(node->leaf);
    EXPECT_EQ(node->entries.size(), 0u);
    EXPECT_EQ(node->entries.capacity(), 33u);
  }
  EXPECT_EQ(arena.node_count(), 1000u);
  EXPECT_GE(arena.allocated_bytes(), 1000 * arena.chunk_bytes());
  // Every node is destroyed with the arena (ASan reports any leaked entry).
}

TEST(NodeArena, EntriesLiveInsideTheChunk) {
  NodeArena arena(17);
  IurTree::Node* node = arena.Create();
  for (int i = 0; i < 17; ++i) {
    IurTree::Entry e;
    e.id = static_cast<uint32_t>(i);
    node->entries.push_back(std::move(e));
  }
  const auto node_addr = reinterpret_cast<uintptr_t>(node);
  const auto entry_addr = reinterpret_cast<uintptr_t>(&node->entries[0]);
  EXPECT_GE(entry_addr, node_addr + sizeof(IurTree::Node));
  EXPECT_LE(entry_addr + 17 * sizeof(IurTree::Entry),
            node_addr + arena.chunk_bytes());
  EXPECT_EQ(node->entries[16].id, 16u);
}

TEST(NodeArena, TreeReleasesEveryNode) {
  FlickrLikeConfig config;
  config.num_objects = 500;
  config.vocab_size = 80;
  config.seed = 11;
  const Dataset dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const IurTree tree = IurTree::BuildFromDataset(dataset, {});
  // The build creates exactly the nodes it keeps: no placeholder root.
  EXPECT_EQ(tree.arena().node_count(), tree.NodeCount());
  EXPECT_EQ(tree.arena().entry_capacity(), IurTreeOptions().max_entries);
  const Status invariants = tree.CheckInvariants(
      [&](uint32_t id) { return &dataset.object(id).doc; });
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

TEST(NodeArena, MoveTransfersOwnership) {
  FlickrLikeConfig config;
  config.num_objects = 200;
  config.vocab_size = 50;
  config.seed = 12;
  const Dataset dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  IurTree tree = IurTree::BuildFromDataset(dataset, {});
  const size_t nodes = tree.NodeCount();

  IurTree moved = std::move(tree);
  EXPECT_EQ(moved.NodeCount(), nodes);
  EXPECT_EQ(moved.size(), 200u);

  // Move assignment over a live tree must destroy the old tree's nodes.
  IurTree other = IurTree::BuildFromDataset(dataset, {});
  other = std::move(moved);
  EXPECT_EQ(other.NodeCount(), nodes);
  const Status invariants = other.CheckInvariants(
      [&](uint32_t id) { return &dataset.object(id).doc; });
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

TEST(NodeArena, ParallelBuildAndDestroyStress) {
  // Each thread builds and destroys its own trees (arenas are per-tree and
  // not shared); under TSan/ASan this catches any accidental global state in
  // the arena or stale-pointer reuse across trees.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<Dataset> datasets(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    FlickrLikeConfig config;
    config.num_objects = 300;
    config.vocab_size = 60;
    config.seed = 100 + static_cast<uint64_t>(t);
    datasets[t] = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&datasets, t] {
      const Dataset& dataset = datasets[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        const IurTree tree = IurTree::BuildFromDataset(dataset, {});
        ASSERT_EQ(tree.arena().node_count(), tree.NodeCount());
        const Status invariants = tree.CheckInvariants(
            [&](uint32_t id) { return &dataset.object(id).doc; });
        ASSERT_TRUE(invariants.ok()) << invariants.ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace rst
