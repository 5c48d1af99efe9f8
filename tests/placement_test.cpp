#include <gtest/gtest.h>

#include "mbr/composition.hpp"
#include "mbr/mapping.hpp"
#include "mbr/placement.hpp"
#include "mbr/worked_example.hpp"
#include "solver_oracles.hpp"
#include "util/rng.hpp"

namespace mbrc::mbr {
namespace {

std::vector<PinBox> random_boxes(util::Rng& rng, int count) {
  std::vector<PinBox> boxes;
  for (int i = 0; i < count; ++i) {
    const double x = rng.uniform_real(0, 300);
    const double y = rng.uniform_real(0, 300);
    boxes.push_back({{x, y, x + rng.uniform_real(0, 60),
                      y + rng.uniform_real(0, 60)},
                     {rng.uniform_real(0, 12), rng.uniform_real(0, 2)}});
  }
  return boxes;
}

TEST(PlacementObjective, SinglePinBoxMinimumIsZeroGrowth) {
  // One box: any corner that puts the pin inside the box adds nothing
  // beyond the box's own half-perimeter.
  const PinBox box{{10, 10, 30, 40}, {2, 1}};
  const geom::Rect region{0, 0, 100, 100};
  const geom::Point best = optimal_position_median({box}, region);
  const double objective = placement_objective({box}, best);
  EXPECT_NEAR(objective, box.box.half_perimeter(), 1e-9);
  EXPECT_GE(best.x + 2, 10.0 - 1e-9);
  EXPECT_LE(best.x + 2, 30.0 + 1e-9);
}

TEST(PlacementObjective, RespectsCornerRegion) {
  const PinBox box{{200, 200, 220, 220}, {0, 0}};
  const geom::Rect region{0, 0, 50, 50};  // far from the box
  const geom::Point best = optimal_position_median({box}, region);
  // Clamped to the region's nearest corner.
  EXPECT_NEAR(best.x, 50.0, 1e-9);
  EXPECT_NEAR(best.y, 50.0, 1e-9);
}

TEST(PlacementObjective, EmptyBoxesFallBackToRegionCenter) {
  const geom::Rect region{10, 10, 30, 30};
  EXPECT_EQ(optimal_position_median({}, region), region.center());
}

// Property: the weighted-median solution reaches the minimum over every
// breakpoint of the paper's objective (the argmin may differ on flat
// plateaus), and no random probe beats it.
TEST(PlacementSolvers, MedianMatchesBreakpointMinimum) {
  util::Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const auto boxes = random_boxes(rng, n);
    const geom::Rect region{0, 0, 320, 320};

    const geom::Point median = optimal_position_median(boxes, region);
    const double f_median = placement_objective(boxes, median);
    EXPECT_NEAR(f_median, oracle::breakpoint_min_placement(boxes, region),
                1e-6)
        << "trial " << trial;

    for (int probe = 0; probe < 50; ++probe) {
      const geom::Point p{rng.uniform_real(0, 320), rng.uniform_real(0, 320)};
      EXPECT_GE(placement_objective(boxes, p) + 1e-9, f_median)
          << "trial " << trial;
    }
  }
}

// Property: with a constrained region, the median stays inside and still
// reaches the breakpoint minimum.
TEST(PlacementSolvers, ConstrainedRegionAgreement) {
  util::Rng rng(405);
  for (int trial = 0; trial < 25; ++trial) {
    const auto boxes = random_boxes(rng, 6);
    const double lo = rng.uniform_real(0, 150);
    const geom::Rect region{lo, lo, lo + rng.uniform_real(5, 100),
                            lo + rng.uniform_real(5, 100)};
    const geom::Point median = optimal_position_median(boxes, region);
    EXPECT_TRUE(region.contains(median));
    EXPECT_NEAR(placement_objective(boxes, median),
                oracle::breakpoint_min_placement(boxes, region), 1e-6)
        << "trial " << trial;
  }
}

TEST(PlaceMbr, WorkedExamplePlacesInsideCommonRegion) {
  const WorkedExample example = make_worked_example();
  const BlockerIndex blockers(example.graph);
  std::vector<int> subgraph;
  for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);
  const EnumerationResult enumeration = enumerate_candidates(
      example.graph, *example.library, blockers, subgraph);

  // Pick the ACD candidate and place it; worked-example nodes have no
  // backing design, so build pin boxes from a design-free path: place_mbr
  // needs a Design only for connectivity, so use an empty design here and
  // check the corner-region logic through the exported pieces instead.
  const Candidate* acd = nullptr;
  for (const Candidate& c : enumeration.candidates)
    if (c.nodes == std::vector<int>{WorkedExample::kA, WorkedExample::kC,
                                    WorkedExample::kD})
      acd = &c;
  ASSERT_NE(acd, nullptr);
  EXPECT_FALSE(acd->common_region.is_empty());
  // The median solver constrained to the candidate's region stays inside.
  const geom::Point corner =
      optimal_position_median({}, acd->common_region);
  EXPECT_TRUE(acd->common_region.contains(corner));
}

}  // namespace
}  // namespace mbrc::mbr
