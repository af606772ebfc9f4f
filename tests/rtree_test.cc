#include "rst/rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "rst/common/rng.h"

namespace rst {
namespace {

std::vector<std::pair<ObjectId, Rect>> RandomPoints(Rng* rng, size_t n,
                                                    double extent = 100.0) {
  std::vector<std::pair<ObjectId, Rect>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point p{rng->Uniform(0, extent), rng->Uniform(0, extent)};
    items.push_back({static_cast<ObjectId>(i), Rect::FromPoint(p)});
  }
  return items;
}

std::vector<ObjectId> BruteRange(
    const std::vector<std::pair<ObjectId, Rect>>& items, const Rect& q) {
  std::vector<ObjectId> out;
  for (const auto& [id, rect] : items) {
    if (rect.Intersects(q)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTreeTest, EmptyTreeQueries) {
  const RTree tree = RTree::BulkLoad({});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.RangeQuery(Rect::FromCorners(0, 0, 1, 1)).empty());
  EXPECT_TRUE(tree.KnnQuery(Point{0, 0}, 3).empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

class RTreeRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeRandomTest, RangeQueryMatchesBruteForce) {
  Rng rng(31 + GetParam());
  auto items = RandomPoints(&rng, GetParam());
  RTreeOptions narrow;
  narrow.max_entries = 4;  // deeper trees: more internal levels to descend
  const RTree bulk = RTree::BulkLoad(items);
  const RTree deep = RTree::BulkLoad(items, narrow);
  ASSERT_TRUE(bulk.CheckInvariants().ok());
  ASSERT_TRUE(deep.CheckInvariants().ok());
  EXPECT_EQ(bulk.size(), items.size());
  for (int q = 0; q < 25; ++q) {
    const Rect query =
        Rect::FromCorners(rng.Uniform(0, 100), rng.Uniform(0, 100),
                          rng.Uniform(0, 100), rng.Uniform(0, 100));
    const auto expected = BruteRange(items, query);
    EXPECT_EQ(bulk.RangeQuery(query), expected);
    EXPECT_EQ(deep.RangeQuery(query), expected);
  }
}

TEST_P(RTreeRandomTest, KnnMatchesBruteForce) {
  Rng rng(41 + GetParam());
  auto items = RandomPoints(&rng, GetParam());
  RTree tree = RTree::BulkLoad(items);
  for (int q = 0; q < 15; ++q) {
    const Point p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    for (size_t k : {1u, 5u, 17u}) {
      auto got = tree.KnnQuery(p, k);
      // Brute-force kNN.
      std::vector<std::pair<double, ObjectId>> brute;
      for (const auto& [id, rect] : items) {
        brute.push_back({MinDistance(p, rect), id});
      }
      std::sort(brute.begin(), brute.end());
      const size_t expect_n = std::min(k, items.size());
      ASSERT_EQ(got.size(), expect_n);
      for (size_t i = 0; i < expect_n; ++i) {
        EXPECT_NEAR(got[i].distance, brute[i].first, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeRandomTest,
                         ::testing::Values(1, 10, 33, 200, 1000));

TEST(RTreeTest, BulkLoadHandlesDegenerateSizes) {
  for (size_t n : {0u, 1u, 2u, 32u, 33u}) {
    Rng rng(7 + n);
    auto items = RandomPoints(&rng, n);
    RTree tree = RTree::BulkLoad(items);
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.CheckInvariants().ok());
    EXPECT_EQ(tree.RangeQuery(Rect::FromCorners(-1, -1, 101, 101)).size(), n);
  }
}

TEST(RTreeTest, KnnDeterministicTieBreak) {
  // Four equidistant points: ids must come back in ascending order.
  RTreeOptions options;
  options.max_entries = 2;  // the four points span two leaves
  const RTree tree = RTree::BulkLoad({{3, Rect::FromPoint(Point{1, 0})},
                                      {1, Rect::FromPoint(Point{-1, 0})},
                                      {2, Rect::FromPoint(Point{0, 1})},
                                      {0, Rect::FromPoint(Point{0, -1})}},
                                     options);
  auto got = tree.KnnQuery(Point{0, 0}, 4);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i].id, i);
}

TEST(RTreeTest, NodeCountGrowsWithSize) {
  Rng rng(71);
  RTree small = RTree::BulkLoad(RandomPoints(&rng, 50));
  RTree large = RTree::BulkLoad(RandomPoints(&rng, 2000));
  EXPECT_LT(small.NodeCount(), large.NodeCount());
  EXPECT_GE(large.height(), small.height());
}

}  // namespace
}  // namespace rst
