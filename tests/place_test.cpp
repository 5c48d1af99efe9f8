#include <gtest/gtest.h>

#include "lib/library.hpp"
#include "place/legalizer.hpp"

namespace mbrc::place {
namespace {

TEST(RowGrid, RowGeometry) {
  RowGrid grid({0, 0, 100, 18}, {});
  EXPECT_EQ(grid.row_count(), 10);
  EXPECT_DOUBLE_EQ(grid.row_y(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.row_y(3), 5.4);
  EXPECT_EQ(grid.row_of(5.4), 3);
  EXPECT_EQ(grid.row_of(6.0), 3);     // rounds to the nearest row
  EXPECT_EQ(grid.row_of(-100.0), 0);  // clamped
  EXPECT_EQ(grid.row_of(1000.0), 9);
}

TEST(RowGrid, OccupyReleaseIsFree) {
  RowGrid grid({0, 0, 100, 18}, {});
  EXPECT_TRUE(grid.is_free(0, 10, 5));
  EXPECT_TRUE(grid.occupy(0, 10, 5));
  EXPECT_FALSE(grid.is_free(0, 10, 5));
  EXPECT_FALSE(grid.is_free(0, 12, 5));   // overlaps tail
  EXPECT_FALSE(grid.is_free(0, 6, 5));    // overlaps head
  EXPECT_TRUE(grid.is_free(0, 15, 5));    // abuts on the right
  EXPECT_TRUE(grid.is_free(0, 5, 5));     // abuts on the left
  EXPECT_FALSE(grid.occupy(0, 12, 2));    // rejected, no change
  grid.release(0, 10);
  EXPECT_TRUE(grid.is_free(0, 10, 5));
  EXPECT_THROW(grid.release(0, 10), util::AssertionError);
}

TEST(RowGrid, RejectsOutOfCore) {
  RowGrid grid({0, 0, 100, 18}, {});
  EXPECT_FALSE(grid.is_free(0, -1, 5));
  EXPECT_FALSE(grid.is_free(0, 98, 5));
  EXPECT_FALSE(grid.is_free(-1, 10, 5));
  EXPECT_FALSE(grid.is_free(10, 10, 5));
}

TEST(RowGrid, OccupantsReporting) {
  RowGrid grid({0, 0, 100, 18}, {});
  grid.occupy(2, 10, 5, netlist::CellId{7});
  grid.occupy(2, 20, 5, netlist::CellId{8});
  const auto hits = grid.occupants(2, 12, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].cell, netlist::CellId{7});
  EXPECT_EQ(hits[1].cell, netlist::CellId{8});
  EXPECT_TRUE(grid.occupants(2, 15, 5).empty());
}

TEST(RowGrid, GapWithinToleranceTakesTheCellAtItsLeftEdge) {
  // The gap [10, 14 - 5e-10) is narrower than the 4 um cell by less than
  // the fit tolerance, so it is accepted and the cell lands at its left
  // edge, the spot nearest the target.
  RowGrid grid({0, 0, 100, 1.8}, {});
  ASSERT_EQ(grid.row_count(), 1);
  ASSERT_TRUE(grid.occupy(0, 0, 10));
  ASSERT_TRUE(grid.occupy(0, 14 - 5e-10, 20));
  const auto spot = grid.find_nearest_free({10, 0}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_DOUBLE_EQ(spot->x, 10.0);
}

TEST(RowGrid, FindNearestFreePrefersTarget) {
  RowGrid grid({0, 0, 100, 18}, {});
  const auto spot = grid.find_nearest_free({40.05, 5.4}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_NEAR(spot->x, 40.0, 0.21);  // snapped to the site grid
  EXPECT_NEAR(spot->y, 5.4, 1e-9);
}

TEST(RowGrid, FindNearestFreeAvoidsOccupied) {
  RowGrid grid({0, 0, 100, 3.6}, {});  // two rows
  // Fill row 0 completely.
  ASSERT_TRUE(grid.occupy(0, 0, 100));
  const auto spot = grid.find_nearest_free({50, 0}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_NEAR(spot->y, 1.8, 1e-9);  // pushed to row 1
}

TEST(RowGrid, FindNearestFreeFullGrid) {
  RowGrid grid({0, 0, 10, 1.8}, {});
  ASSERT_TRUE(grid.occupy(0, 0, 10));
  EXPECT_FALSE(grid.find_nearest_free({5, 0}, 2).has_value());
}

class LegalizeFixture : public ::testing::Test {
protected:
  LegalizeFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 60, 18}) {}

  lib::Library library;
  netlist::Design design;
};

TEST_F(LegalizeFixture, PlacesIntoFreeSpaceWithoutMoving) {
  const auto* cell = library.register_by_name("DFFP_B2_X1");
  const netlist::CellId reg = design.add_register("r", cell, {10.0, 3.6});
  RowGrid grid = build_occupancy(design, {reg});
  const LegalizeResult result = legalize_cells(design, grid, {reg});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.cells_moved, 0);
  EXPECT_EQ(design.cell(reg).position, (geom::Point{10.0, 3.6}));
}

TEST_F(LegalizeFixture, EvictsCombCellsForRegisters) {
  // Pave several rows with combinational cells so no free spot is close,
  // then legalize an MBR into the paved area.
  const auto* gate = library.comb_by_name("NAND2_X1");
  int name = 0;
  for (int row = 0; row < 6; ++row) {
    for (int i = 0;; ++i) {
      const double x = i * gate->width;
      if (x + gate->width > 60) break;
      design.add_comb("g" + std::to_string(name++), gate, {x, row * 1.8});
    }
  }
  const auto* mbr_cell = library.register_by_name("DFFP_B8_X1");
  const netlist::CellId mbr =
      design.add_register("mbr", mbr_cell, {20.0, 3.6});

  RowGrid grid = build_occupancy(design, {mbr});
  const LegalizeResult result = legalize_cells(design, grid, {mbr});
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.cells_evicted, 0);
  // The MBR stays in its target row at (nearly) its target x.
  EXPECT_NEAR(design.cell(mbr).position.y, 3.6, 1e-9);
  EXPECT_NEAR(design.cell(mbr).position.x, 20.0, 0.3);

  // No overlaps afterwards: rebuild occupancy from scratch must succeed for
  // every live cell.
  RowGrid check(design.core(), {});
  for (netlist::CellId id : design.live_cells()) {
    const netlist::Cell& c = design.cell(id);
    if (c.kind == netlist::CellKind::kPort) continue;
    EXPECT_TRUE(check.occupy(check.row_of(c.position.y), c.position.x,
                             c.width(), id))
        << "overlap at " << c.name;
  }
}

TEST_F(LegalizeFixture, NeverEvictsRegistersOrFixedCells) {
  const auto* reg_cell = library.register_by_name("DFFP_B2_X1");
  // A wall of registers across the target row.
  for (int i = 0; i < 9; ++i)
    design.add_register("wall" + std::to_string(i), reg_cell,
                        {i * reg_cell->width, 3.6});
  const auto* mbr_cell = library.register_by_name("DFFP_B4_X1");
  const netlist::CellId mbr =
      design.add_register("mbr", mbr_cell, {10.0, 3.6});

  RowGrid grid = build_occupancy(design, {mbr});
  const LegalizeResult result = legalize_cells(design, grid, {mbr});
  EXPECT_TRUE(result.success);
  // Must have moved to another row or beyond the wall, not on top of it.
  RowGrid check(design.core(), {});
  for (netlist::CellId id : design.live_cells()) {
    const netlist::Cell& c = design.cell(id);
    EXPECT_TRUE(check.occupy(check.row_of(c.position.y), c.position.x,
                             c.width(), id));
  }
}

TEST_F(LegalizeFixture, DisplacementAccounting) {
  const auto* cell = library.register_by_name("DFFP_B1_X1");
  const netlist::CellId a = design.add_register("a", cell, {10.0, 3.6});
  const netlist::CellId b = design.add_register("b", cell, {10.0, 3.6});
  RowGrid grid = build_occupancy(design, {a, b});
  const LegalizeResult result = legalize_cells(design, grid, {a, b});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.cells_moved, 1);  // the second one had to shift
  EXPECT_GT(result.total_displacement, 0.0);
  EXPECT_GE(result.max_displacement, result.total_displacement / 2);
}

}  // namespace
}  // namespace mbrc::place
