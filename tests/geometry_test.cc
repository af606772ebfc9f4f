#include "rst/common/geometry.h"

#include <gtest/gtest.h>

#include "rst/common/rng.h"

namespace rst {
namespace {

TEST(RectTest, EmptyRectBehaviour) {
  Rect r;
  EXPECT_TRUE(r.empty());
  r.Extend(Point{1.0, 2.0});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.min_x, 1.0);
  EXPECT_EQ(r.max_y, 2.0);
  EXPECT_EQ(r, Rect::FromPoint(Point{1.0, 2.0}));
}

TEST(RectTest, ExtendIsUnionIdentityForEmpty) {
  const Rect r = Rect::FromCorners(0, 0, 2, 3);
  Rect u;
  u.Extend(r);
  EXPECT_EQ(u, r);
  u = r;
  u.Extend(Rect());
  EXPECT_EQ(u, r);
}

TEST(RectTest, ContainsPoint) {
  const Rect r = Rect::FromCorners(0, 0, 10, 10);
  EXPECT_TRUE(r.Contains(Point{5, 5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));     // boundary
  EXPECT_FALSE(r.Contains(Point{10.1, 5}));
}

TEST(DistanceTest, PointToRect) {
  const Rect r = Rect::FromCorners(0, 0, 10, 10);
  EXPECT_EQ(MinDistance(Point{5, 5}, r), 0.0);   // inside
  EXPECT_EQ(MinDistance(Point{15, 5}, r), 5.0);  // right side
  EXPECT_DOUBLE_EQ(MinDistance(Point{13, 14}, r), 5.0);  // corner (3-4-5)
  // Max distance from center is to a corner.
  EXPECT_DOUBLE_EQ(MaxDistance(Point{5, 5}, r), std::hypot(5.0, 5.0));
  EXPECT_DOUBLE_EQ(MaxDistance(Point{-1, -1}, r), std::hypot(11.0, 11.0));
}

TEST(DistanceTest, RectToRect) {
  const Rect a = Rect::FromCorners(0, 0, 1, 1);
  const Rect b = Rect::FromCorners(4, 4, 5, 5);
  EXPECT_DOUBLE_EQ(MinDistance(a, b), std::hypot(3.0, 3.0));
  EXPECT_DOUBLE_EQ(MaxDistance(a, b), std::hypot(5.0, 5.0));
  EXPECT_EQ(MinDistance(a, a), 0.0);
  // Overlapping rectangles have zero min distance.
  EXPECT_EQ(MinDistance(a, Rect::FromCorners(0.5, 0.5, 2, 2)), 0.0);
}

// Property: rect-to-rect min/max distances bracket the distance of any pair
// of contained points.
TEST(DistanceTest, RectDistanceBracketsPointDistances) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const Rect a = Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                                     rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    const Rect b = Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                                     rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    for (int s = 0; s < 20; ++s) {
      const Point pa{rng.Uniform(a.min_x, a.max_x),
                     rng.Uniform(a.min_y, a.max_y)};
      const Point pb{rng.Uniform(b.min_x, b.max_x),
                     rng.Uniform(b.min_y, b.max_y)};
      const double d = Distance(pa, pb);
      EXPECT_LE(MinDistance(a, b), d + 1e-9);
      EXPECT_GE(MaxDistance(a, b), d - 1e-9);
      // Point-to-rect bounds as well.
      EXPECT_LE(MinDistance(pa, b), d + 1e-9);
      EXPECT_GE(MaxDistance(pa, b), d - 1e-9);
    }
  }
}

}  // namespace
}  // namespace rst
