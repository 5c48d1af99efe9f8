// Convex hull (Andrew's monotone chain) and point-in-convex-polygon tests.
//
// The placement-aware weight of Sec. 3.2 tests whether the center of a
// non-participating register lies inside the convex hull of the corners of a
// candidate MBR's registers; these are the primitives behind that test.
#pragma once

#include <span>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace mbrc::geom {

/// Cross-product tolerance of the containment tests: a side within it
/// counts as on the boundary.
inline constexpr double kHullEps = 1e-9;

/// Convex hull of `points` in counter-clockwise order, first point not
/// repeated. Boundary points collinear in floating point (cross product
/// exactly 0, as on a shared row or column) are dropped; the chain takes
/// no tolerance. Degenerate inputs (0/1/2 points or all collinear) return
/// the reduced chain (<= 2 points).
std::vector<Point> convex_hull(std::vector<Point> points);

/// The monotone chain behind convex_hull(), for callers that keep their
/// points sorted by (x, y) with duplicates removed: writes the same hull
/// into `hull`, reusing its storage.
void convex_hull_of_sorted(std::span<const Point> sorted,
                           std::vector<Point>& hull);

/// True when `p` is inside or on the boundary of the convex polygon `hull`
/// (counter-clockwise order, as produced by convex_hull()). A degenerate hull
/// (segment or point) contains only points on it.
bool convex_contains(const std::vector<Point>& hull, const Point& p);

/// True when `p` is strictly inside the polygon (not on the boundary).
bool convex_contains_strict(const std::vector<Point>& hull, const Point& p);

/// Area of a convex polygon in counter-clockwise order (shoelace formula).
double convex_area(const std::vector<Point>& hull);

/// Convenience: hull of the 4 corners of each rect.
std::vector<Point> convex_hull_of_rects(const std::vector<Rect>& rects);

}  // namespace mbrc::geom
