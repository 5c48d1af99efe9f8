#include "geom/convex_hull.hpp"

#include <algorithm>
#include <cmath>

namespace mbrc::geom {

namespace {

constexpr double kEps = kHullEps;

// True when p lies on the closed segment [a, b].
bool on_segment(const Point& a, const Point& b, const Point& p) {
  if (std::abs(cross(a, b, p)) > kEps) return false;
  return p.x >= std::min(a.x, b.x) - kEps && p.x <= std::max(a.x, b.x) + kEps &&
         p.y >= std::min(a.y, b.y) - kEps && p.y <= std::max(a.y, b.y) + kEps;
}

}  // namespace

std::vector<Point> convex_hull(std::vector<Point> points) {
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    // mbrc-lint: allow(R2, lexicographic on the full value -- ties are exact duplicates which the unique below erases)
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::vector<Point> hull;
  convex_hull_of_sorted(points, hull);
  return hull;
}

void convex_hull_of_sorted(std::span<const Point> points,
                           std::vector<Point>& hull) {
  const std::size_t n = points.size();
  if (n <= 2) {
    hull.assign(points.begin(), points.end());
    return;
  }
  hull.resize(2 * n);
  std::size_t k = 0;
  // A turn is dropped only when its sign says so, with no tolerance: two
  // sort-adjacent points an ulp apart in x (abutting footprints whose edges
  // were computed differently) make any absolute cross tolerance a huge
  // angle, and a tolerance there dropped a true corner microns away.
  // Lower chain.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && cross(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  // Upper chain.
  const std::size_t lower_size = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower_size && cross(hull[k - 2], hull[k - 1], points[i]) <= 0.0)
      --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);  // last point equals the first
}

bool convex_contains(const std::vector<Point>& hull, const Point& p) {
  const std::size_t n = hull.size();
  if (n == 0) return false;
  if (n == 1) return manhattan(hull[0], p) <= kEps;
  if (n == 2) return on_segment(hull[0], hull[1], p);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = hull[i];
    const Point& b = hull[(i + 1) % n];
    if (cross(a, b, p) < -kEps) return false;  // right of a CCW edge: outside
  }
  return true;
}

bool convex_contains_strict(const std::vector<Point>& hull, const Point& p) {
  const std::size_t n = hull.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = hull[i];
    const Point& b = hull[(i + 1) % n];
    if (cross(a, b, p) < kEps) return false;  // outside or on the boundary
  }
  return true;
}

double convex_area(const std::vector<Point>& hull) {
  const std::size_t n = hull.size();
  if (n < 3) return 0.0;
  double twice = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = hull[i];
    const Point& b = hull[(i + 1) % n];
    twice += a.x * b.y - b.x * a.y;
  }
  return twice / 2.0;
}

std::vector<Point> convex_hull_of_rects(const std::vector<Rect>& rects) {
  std::vector<Point> corners;
  corners.reserve(rects.size() * 4);
  for (const Rect& r : rects) {
    corners.push_back({r.xlo, r.ylo});
    corners.push_back({r.xlo, r.yhi});
    corners.push_back({r.xhi, r.ylo});
    corners.push_back({r.xhi, r.yhi});
  }
  return convex_hull(std::move(corners));
}

}  // namespace mbrc::geom
