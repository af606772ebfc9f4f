#include "rst/common/geometry.h"

#include <cstdio>

namespace rst {

void Rect::Extend(const Rect& r) {
  if (r.empty()) return;
  min_x = std::min(min_x, r.min_x);
  min_y = std::min(min_y, r.min_y);
  max_x = std::max(max_x, r.max_x);
  max_y = std::max(max_y, r.max_y);
}

std::string Rect::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[(%g,%g)-(%g,%g)]", min_x, min_y, max_x,
                max_y);
  return buf;
}

double Distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

double MinDistance(const Point& p, const Rect& r) {
  const double dx = std::max({r.min_x - p.x, 0.0, p.x - r.max_x});
  const double dy = std::max({r.min_y - p.y, 0.0, p.y - r.max_y});
  return std::hypot(dx, dy);
}

double MaxDistance(const Point& p, const Rect& r) {
  const double dx = std::max(std::abs(p.x - r.min_x), std::abs(p.x - r.max_x));
  const double dy = std::max(std::abs(p.y - r.min_y), std::abs(p.y - r.max_y));
  return std::hypot(dx, dy);
}

double MinDistance(const Rect& a, const Rect& b) {
  const double dx =
      std::max({a.min_x - b.max_x, 0.0, b.min_x - a.max_x});
  const double dy =
      std::max({a.min_y - b.max_y, 0.0, b.min_y - a.max_y});
  return std::hypot(dx, dy);
}

double MaxDistance(const Rect& a, const Rect& b) {
  const double dx = std::max(std::abs(a.max_x - b.min_x),
                             std::abs(b.max_x - a.min_x));
  const double dy = std::max(std::abs(a.max_y - b.min_y),
                             std::abs(b.max_y - a.min_y));
  return std::hypot(dx, dy);
}

}  // namespace rst
