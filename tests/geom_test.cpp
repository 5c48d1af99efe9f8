#include <gtest/gtest.h>

#include "geom/convex_hull.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "util/rng.hpp"

namespace mbrc::geom {
namespace {

TEST(Point, ManhattanAndEuclidean) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(manhattan({-1, -2}, {-4, 2}), 7.0);
}

TEST(Point, CrossSign) {
  EXPECT_GT(cross({0, 0}, {1, 0}, {0, 1}), 0.0);  // CCW turn
  EXPECT_LT(cross({0, 0}, {0, 1}, {1, 0}), 0.0);  // CW turn
  EXPECT_DOUBLE_EQ(cross({0, 0}, {1, 1}, {2, 2}), 0.0);  // collinear
}

TEST(Rect, BasicGeometry) {
  const Rect r{1, 2, 5, 8};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 6.0);
  EXPECT_DOUBLE_EQ(r.area(), 24.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 10.0);
  EXPECT_EQ(r.center(), (Point{3, 5}));
  EXPECT_FALSE(r.is_empty());
}

TEST(Rect, EmptyAndUniverseIdentities) {
  const Rect e = Rect::empty();
  const Rect u = Rect::universe();
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(e.is_empty());
  EXPECT_FALSE(u.is_empty());
  EXPECT_EQ(e.unite(r), r);
  EXPECT_EQ(r.unite(e), r);
  EXPECT_EQ(u.intersect(r), r);
  EXPECT_EQ(r.intersect(u), r);
  EXPECT_TRUE(e.intersect(r).is_empty());
}

TEST(Rect, ContainsAndOverlap) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains({0, 0}));       // boundary inclusive
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_FALSE(r.contains_strict({0, 5}));
  EXPECT_TRUE(r.contains_strict({5, 5}));
  EXPECT_TRUE(r.overlaps({10, 10, 20, 20}));  // corner touch counts
  EXPECT_FALSE(r.overlaps({10.1, 0, 20, 10}));
  EXPECT_FALSE(r.overlaps(Rect::empty()));
}

TEST(Rect, IntersectIsCommutativeAndShrinking) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, -3, 20, 7};
  const Rect i = a.intersect(b);
  EXPECT_EQ(i, b.intersect(a));
  EXPECT_EQ(i, (Rect{5, 0, 10, 7}));
  EXPECT_LE(i.area(), a.area());
  EXPECT_LE(i.area(), b.area());
}

TEST(Rect, InflateExpandClamp) {
  const Rect r{2, 2, 4, 4};
  EXPECT_EQ(r.inflate(1), (Rect{1, 1, 5, 5}));
  EXPECT_TRUE(r.inflate(-2).is_empty() || r.inflate(-2).area() == 0.0);
  EXPECT_EQ(r.expand({10, 3}), (Rect{2, 2, 10, 4}));
  EXPECT_EQ(Rect::empty().expand({1, 1}), (Rect{1, 1, 1, 1}));
  EXPECT_EQ(r.clamp({0, 3}), (Point{2, 3}));
  EXPECT_EQ(r.clamp({3, 3}), (Point{3, 3}));
}

TEST(ConvexHull, SquareWithInteriorPoints) {
  const auto hull = convex_hull(
      {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}, {2, 0}});
  ASSERT_EQ(hull.size(), 4u);  // collinear {2,0} and interior points dropped
  EXPECT_TRUE(convex_contains(hull, {2, 2}));
  EXPECT_TRUE(convex_contains(hull, {0, 0}));       // vertex
  EXPECT_TRUE(convex_contains(hull, {2, 0}));       // on edge
  EXPECT_FALSE(convex_contains(hull, {4.01, 2}));
  EXPECT_TRUE(convex_contains_strict(hull, {2, 2}));
  EXPECT_FALSE(convex_contains_strict(hull, {2, 0}));  // boundary not strict
  EXPECT_DOUBLE_EQ(convex_area(hull), 16.0);
}

TEST(ConvexHull, Degenerate) {
  EXPECT_TRUE(convex_hull({}).empty());
  EXPECT_EQ(convex_hull({{1, 1}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1, 1}, {1, 1}}).size(), 1u);  // duplicates collapse
  const auto segment = convex_hull({{0, 0}, {2, 2}, {1, 1}});
  EXPECT_EQ(segment.size(), 2u);  // all collinear
  EXPECT_TRUE(convex_contains(segment, {1, 1}));
  EXPECT_FALSE(convex_contains(segment, {1, 0}));
  EXPECT_FALSE(convex_contains_strict(segment, {1, 1}));
}

TEST(ConvexHull, OfRects) {
  const auto hull = convex_hull_of_rects({{0, 0, 1, 1}, {3, 3, 4, 4}});
  EXPECT_EQ(hull.size(), 6u);  // hexagon
  EXPECT_TRUE(convex_contains(hull, {2, 2}));
  EXPECT_FALSE(convex_contains(hull, {0, 4}));
  EXPECT_FALSE(convex_contains(hull, {4, 0}));
}

TEST(ConvexHull, KeepsCornerBesideAnUlpApartColumn) {
  // Six abutting register footprints of a generated design: two right
  // edges meet at x = 542.3333...33 computed two ways, an ulp or so apart.
  // With a 1e-9 collinearity tolerance the chain took (x+ulp, 64.8),
  // (x, 66.6), (x, 64.8) for collinear and dropped the top corner
  // (x, 66.6), so the register centered at (538.33, 67.5) fell outside.
  const auto hull = convex_hull_of_rects({
      {536.60000000000002, 63, 539.26666666666665, 64.799999999999997},
      {532.39999999999998, 66.600000000000009, 535.4666666666667,
       68.400000000000006},
      {537, 64.799999999999997, 539.66666666666663, 66.599999999999994},
      {539.66666666666663, 64.799999999999997, 542.33333333333326,
       66.599999999999994},
      {539.26666666666665, 63, 542.33333333333337, 64.799999999999997},
      {531.80000000000007, 63, 534.4666666666667, 64.799999999999997}});
  const Point corner{542.33333333333326, 66.599999999999994};
  EXPECT_NE(std::find(hull.begin(), hull.end(), corner), hull.end());
  EXPECT_TRUE(convex_contains_strict(hull, {538.33333333333326, 67.5}));
}

// Property: every input point is contained in its hull, and the hull's
// vertices are input points.
TEST(ConvexHull, ContainmentProperty) {
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Point> points;
    const int n = static_cast<int>(rng.uniform_int(3, 40));
    for (int i = 0; i < n; ++i)
      points.push_back({rng.uniform_real(-100, 100),
                        rng.uniform_real(-100, 100)});
    const auto hull = convex_hull(points);
    for (const Point& p : points)
      EXPECT_TRUE(convex_contains(hull, p))
          << "trial " << trial << " point " << p;
    for (const Point& v : hull) {
      EXPECT_NE(std::find(points.begin(), points.end(), v), points.end());
    }
  }
}

// Property: hull area is invariant under input permutation, and adding an
// interior point never changes the hull.
TEST(ConvexHull, StabilityProperty) {
  util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 12; ++i)
      points.push_back({rng.uniform_real(0, 50), rng.uniform_real(0, 50)});
    auto hull = convex_hull(points);
    if (hull.size() < 3) continue;
    const double area = convex_area(hull);
    const Point centroid = hull[0] * (1.0 / 3) + hull[1] * (1.0 / 3) +
                           hull[2] * (1.0 / 3);
    points.push_back(centroid);
    EXPECT_NEAR(convex_area(convex_hull(points)), area, 1e-9);
  }
}

}  // namespace
}  // namespace mbrc::geom
