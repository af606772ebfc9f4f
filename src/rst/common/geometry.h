#ifndef RST_COMMON_GEOMETRY_H_
#define RST_COMMON_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace rst {

/// A point in the 2-D plane. Both papers operate on (longitude, latitude)
/// treated as planar Euclidean coordinates; we keep that convention.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Axis-aligned rectangle (MBR). An "empty" rectangle has min > max and acts
/// as the identity for Extend.
struct Rect {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  static Rect FromPoint(const Point& p) { return Rect{p.x, p.y, p.x, p.y}; }
  static Rect FromCorners(double x1, double y1, double x2, double y2) {
    return Rect{std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
                std::max(y1, y2)};
  }

  bool empty() const { return min_x > max_x || min_y > max_y; }

  Point Center() const {
    return Point{(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// Grows this rectangle to cover `r` (no-op if `r` is empty).
  void Extend(const Rect& r);
  void Extend(const Point& p) { Extend(FromPoint(p)); }

  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

/// Euclidean distance between two points.
double Distance(const Point& a, const Point& b);

/// Minimum Euclidean distance from point `p` to rectangle `r`
/// (0 if `p` lies inside `r`).
double MinDistance(const Point& p, const Rect& r);

/// Maximum Euclidean distance from point `p` to any point of `r`.
double MaxDistance(const Point& p, const Rect& r);

/// Minimum Euclidean distance between any two points of `a` and `b`
/// (0 if they intersect).
double MinDistance(const Rect& a, const Rect& b);

/// Maximum Euclidean distance between any two points of `a` and `b`.
double MaxDistance(const Rect& a, const Rect& b);

}  // namespace rst

#endif  // RST_COMMON_GEOMETRY_H_
