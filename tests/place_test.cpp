#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "lib/library.hpp"
#include "obs/counters.hpp"
#include "place/legalizer.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------------
// Differential oracle: the plain row search, with one std::map per row and
// an outward walk that stops only at each side's first wide-enough gap (no
// cost budget, no block summaries). It reproduces the current row-stop rule on
// purpose, including its known defect for targets between rows (see
// KnownDefectOffRowTargetStopsOneRowEarly, an open item in ROADMAP.md):
// RowGrid must match it bit for bit until a change that fixes the defect
// replaces both.
// ---------------------------------------------------------------------------

class ReferenceGrid {
public:
  ReferenceGrid(geom::Rect core, RowGridOptions options)
      : core_(core), options_(options) {
    const int rows =
        std::max(1, static_cast<int>(core.height() / options.row_height));
    rows_.resize(rows);
  }

  int row_count() const { return static_cast<int>(rows_.size()); }
  double row_y(int row) const {
    return core_.ylo + row * options_.row_height;
  }
  int row_of(double y) const {
    const int row = static_cast<int>(
        std::floor((y - core_.ylo) / options_.row_height + 0.5));
    return std::clamp(row, 0, row_count() - 1);
  }
  double snap_x(double x) const {
    const double rel = x - core_.xlo;
    return core_.xlo +
           std::floor(rel / options_.site_width) * options_.site_width;
  }

  bool is_free(int row, double x, double width) const {
    if (row < 0 || row >= row_count()) return false;
    if (x < core_.xlo - 1e-9 || x + width > core_.xhi + 1e-9) return false;
    const auto& intervals = rows_[row];
    auto it = intervals.lower_bound(x);
    if (it != intervals.end() && it->first < x + width - 1e-9) return false;
    if (it != intervals.begin()) {
      --it;
      if (it->first + it->second.width > x + 1e-9) return false;
    }
    return true;
  }

  bool occupy(int row, double x, double width, netlist::CellId cell) {
    if (!is_free(row, x, width)) return false;
    rows_[row].emplace(x, Interval{width, cell});
    return true;
  }

  void release(int row, double x) { rows_[row].erase(x); }

  std::vector<RowGrid::Occupant> occupants(int row, double x,
                                           double width) const {
    std::vector<RowGrid::Occupant> result;
    if (row < 0 || row >= row_count()) return result;
    const auto& intervals = rows_[row];
    auto it = intervals.lower_bound(x);
    if (it != intervals.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.width > x + 1e-9)
        result.push_back({prev->first, prev->second.width, prev->second.cell});
    }
    for (; it != intervals.end() && it->first < x + width - 1e-9; ++it)
      result.push_back({it->first, it->second.width, it->second.cell});
    return result;
  }

  std::optional<geom::Point> reference_find_nearest_free(geom::Point t,
                                                         double width) const {
    const int center = row_of(t.y);
    double best_cost = std::numeric_limits<double>::infinity();
    std::optional<geom::Point> best;
    for (int d = 0; d < row_count(); ++d) {
      if (center - d < 0 && center + d >= row_count()) break;
      if (best && d * options_.row_height > best_cost) break;
      for (const int row : {center - d, center + d}) {
        if (row < 0 || row >= row_count()) continue;
        const double dy = std::abs(row_y(row) - t.y);
        if (dy >= best_cost) continue;
        const auto x = best_x_in_row(row, t.x, width);
        if (!x) continue;
        const double cost = dy + std::abs(*x - t.x);
        if (cost < best_cost) {
          best_cost = cost;
          best = geom::Point{*x, row_y(row)};
        }
      }
    }
    return best;
  }

private:
  struct Interval {
    double width = 0.0;
    netlist::CellId cell;
  };

  std::optional<double> best_x_in_row(int row, double target_x,
                                      double width) const {
    const auto& intervals = rows_[row];
    const double lo = core_.xlo;
    const double hi = core_.xhi - width;
    if (hi < lo) return std::nullopt;

    double best = std::numeric_limits<double>::quiet_NaN();
    double best_cost = std::numeric_limits<double>::infinity();
    auto consider = [&](double gap_lo, double gap_hi) -> bool {
      if (gap_hi - gap_lo < width - 1e-9) return false;
      double x =
          std::clamp(target_x, gap_lo, std::max(gap_lo, gap_hi - width));
      x = std::max(gap_lo, snap_x(x));
      if (x + width > gap_hi + 1e-9) x -= options_.site_width;
      if (x < gap_lo - 1e-9) return false;
      const double cost = std::abs(x - target_x);
      if (cost < best_cost || (cost == best_cost && x < best)) {
        best_cost = cost;
        best = x;
      }
      return true;
    };

    const auto right_begin = intervals.lower_bound(target_x);
    const double straddle_lo =
        right_begin == intervals.begin()
            ? lo
            : std::prev(right_begin)->first +
                  std::prev(right_begin)->second.width;
    const double straddle_hi =
        right_begin == intervals.end()
            ? core_.xhi
            : std::min(right_begin->first, core_.xhi);
    consider(straddle_lo, straddle_hi);

    for (auto it = right_begin; it != intervals.end();) {
      const double gap_lo = it->first + it->second.width;
      ++it;
      const double gap_hi =
          it == intervals.end() ? core_.xhi : std::min(it->first, core_.xhi);
      if (consider(gap_lo, gap_hi)) break;
      if (gap_lo - target_x > best_cost) break;
    }
    for (auto it = right_begin; it != intervals.begin();) {
      --it;
      const double gap_hi = std::min(it->first, core_.xhi);
      const double gap_lo =
          it == intervals.begin()
              ? lo
              : std::prev(it)->first + std::prev(it)->second.width;
      if (consider(gap_lo, gap_hi)) break;
      if (target_x - gap_hi > best_cost) break;
    }

    if (std::isnan(best)) return std::nullopt;
    return best;
  }

  geom::Rect core_;
  RowGridOptions options_;
  std::vector<std::map<double, Interval>> rows_;
};

// Both grids, driven in lockstep; every query must agree bit for bit.
struct GridPair {
  GridPair(geom::Rect core, RowGridOptions options)
      : grid(core, options), reference(core, options) {}

  bool occupy(int row, double x, double width, netlist::CellId cell = {}) {
    const bool ok = grid.occupy(row, x, width, cell);
    EXPECT_EQ(ok, reference.occupy(row, x, width, cell))
        << "occupy row " << row << " x " << x << " width " << width;
    return ok;
  }

  void release(int row, double x) {
    grid.release(row, x);
    reference.release(row, x);
  }

  void expect_same_span(int row, double x, double width) const {
    EXPECT_EQ(grid.is_free(row, x, width), reference.is_free(row, x, width));
    const auto got = grid.occupants(row, x, width);
    const auto want = reference.occupants(row, x, width);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].x),
                std::bit_cast<std::uint64_t>(want[i].x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].width),
                std::bit_cast<std::uint64_t>(want[i].width));
      EXPECT_EQ(got[i].cell, want[i].cell);
    }
  }

  std::optional<geom::Point> expect_same_spot(geom::Point t,
                                              double width) const {
    const auto got = grid.find_nearest_free(t, width);
    const auto want = reference.reference_find_nearest_free(t, width);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "target (" << t.x << ", " << t.y << ") width " << width;
    if (got && want) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got->x),
                std::bit_cast<std::uint64_t>(want->x))
          << "target (" << t.x << ", " << t.y << ") width " << width
          << ": got x " << got->x << ", want " << want->x;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got->y),
                std::bit_cast<std::uint64_t>(want->y))
          << "target (" << t.x << ", " << t.y << ") width " << width;
    }
    return got;
  }

  RowGrid grid;
  ReferenceGrid reference;
};

// On-site widths are whole sites; off-site ones are arbitrary doubles.
double random_width(util::Rng& rng, double site, double max_width) {
  if (rng.chance(0.5))
    return site * static_cast<double>(rng.uniform_int(
                      1, std::max<std::int64_t>(
                             1, static_cast<std::int64_t>(max_width / site))));
  return rng.uniform_real(0.05, max_width);
}

TEST(RowGridOracle, MatchesReferenceOnRandomRows) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    util::Rng rng(seed);
    const RowGridOptions options =
        rng.chance(0.5) ? RowGridOptions{} : RowGridOptions{2.0, 0.25};
    const double xlo = rng.chance(0.5) ? 0.0 : rng.uniform_real(-5.0, 5.0);
    const double ylo = rng.chance(0.5) ? 0.0 : rng.uniform_real(-3.0, 3.0);
    const int rows = static_cast<int>(rng.uniform_int(1, 7));
    const geom::Rect core{xlo, ylo, xlo + rng.uniform_real(20.0, 400.0),
                          ylo + rows * options.row_height + 0.01};
    GridPair pair(core, options);
    std::vector<std::pair<int, double>> live;  // occupied (row, x)
    std::int32_t next_cell = 0;

    // Fill every row to 50-98%: cells of random width separated by random
    // gaps whose mean keeps the requested density.
    for (int row = 0; row < pair.grid.row_count(); ++row) {
      const double fill = rng.uniform_real(0.50, 0.98);
      double x = core.xlo;
      while (x < core.xhi) {
        const double width = random_width(rng, options.site_width, 3.0);
        if (pair.occupy(row, x, width, netlist::CellId{next_cell++}))
          live.emplace_back(row, x);
        x += width + width * (1.0 - fill) / fill * rng.uniform_real(0.0, 2.0);
        if (rng.chance(0.5)) x = pair.grid.snap_x(x + options.site_width);
      }
    }

    for (int op = 0; op < 1000; ++op) {
      const int row = static_cast<int>(rng.uniform_int(0, rows - 1));
      const double x = rng.uniform_real(core.xlo - 2.0, core.xhi + 2.0);
      const double width = random_width(rng, options.site_width, 6.0);
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 2) {
        const double at = rng.chance(0.5) ? pair.grid.snap_x(x) : x;
        if (pair.occupy(row, at, width, netlist::CellId{next_cell++}))
          live.emplace_back(row, at);
      } else if (kind < 4 && !live.empty()) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        pair.release(live[victim].first, live[victim].second);
        live[victim] = live.back();
        live.pop_back();
      } else if (kind < 5) {
        pair.expect_same_span(row, x, width);
      } else {
        // Off-row targets, sometimes outside the core, sometimes wider
        // than any gap (or than the core).
        const double y = rng.uniform_real(core.ylo - 2.0, core.yhi + 2.0);
        const double probe =
            rng.chance(0.05) ? core.width() + 1.0 : width;
        pair.expect_same_spot({x, y}, probe);
      }
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " op " << op;
        return;
      }
    }
  }
}

// Packed rows whose only wide gaps sit at nearly the same total cost from
// an off-row target: the row search must walk block-skipped stretches right
// up to each row's budget and still stop where the reference does.
TEST(RowGridOracle, MatchesReferenceNearCrossRowTies) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const RowGridOptions options{};
    const double length = rng.uniform_real(60.0, 300.0);
    GridPair pair({0, 0, length, 3 * options.row_height}, options);
    // Gaps of at most 0.15 um: far narrower than any probe below.
    for (int row = 0; row < 3; ++row) {
      for (double x = 0.0; x < length;) {
        const double width = random_width(rng, options.site_width, 1.2);
        pair.occupy(row, x, width);
        x += width + rng.uniform_real(0.0, 0.15);
      }
    }
    const double width = rng.uniform_real(0.5, 3.0);
    const geom::Point t{rng.uniform_real(0.2, 0.8) * length,
                        rng.uniform_real(0.0, 2 * options.row_height)};
    // One wide gap per row, at a distance that puts the rows' total costs
    // within +-0.3 um of each other.
    const double cost = rng.uniform_real(3.0, 0.2 * length);
    for (int row = 0; row < 3; ++row) {
      const double dy = std::abs(pair.grid.row_y(row) - t.y);
      const double dx = std::max(0.0, cost - dy + rng.uniform_real(-0.3, 0.3));
      const double start = rng.chance(0.5) ? t.x + dx : t.x - dx - width;
      for (const auto& o :
           pair.grid.occupants(row, start - 0.2, width + 0.4))
        pair.release(row, o.x);
    }
    for (int probe = 0; probe < 8; ++probe) {
      pair.expect_same_spot({t.x + rng.uniform_real(-0.3, 0.3), t.y}, width);
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " probe " << probe;
        return;
      }
    }
  }
}

TEST(RowGridOracle, CrossRowCostTieKeepsTheFirstRowFound) {
  const RowGridOptions options{2.0, 0.25};
  GridPair pair({0, 0, 100, 6}, options);  // rows at y = 0, 2, 4
  // Row 0: the nearest fit is x = 60, cost 10. Row 1: x = 58 at dy = 2,
  // also cost 10. The target row is found first and keeps the tie.
  ASSERT_TRUE(pair.occupy(0, 40, 20));
  ASSERT_TRUE(pair.occupy(1, 42, 16));
  ASSERT_TRUE(pair.occupy(2, 0, 100));
  const auto spot = pair.expect_same_spot({50, 0}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_EQ(spot->x, 60.0);
  EXPECT_EQ(spot->y, 0.0);

  // Rows 0 and 2 tie at dy = 2 around a blocked row 1: the lower row is
  // visited first at each distance and keeps the tie.
  GridPair around({0, 0, 100, 6}, options);
  ASSERT_TRUE(around.occupy(1, 0, 100));
  const auto below = around.expect_same_spot({50, 2}, 4);
  ASSERT_TRUE(below.has_value());
  EXPECT_EQ(below->x, 50.0);
  EXPECT_EQ(below->y, 0.0);
}

TEST(RowGrid, GapWithinToleranceTakesTheCellAtItsLeftEdge) {
  // The gap [10, 14 - 5e-10) is narrower than the 4 um cell by less than
  // the fit tolerance, so it is accepted and the cell lands at its left
  // edge, the spot nearest the target.
  GridPair pair({0, 0, 100, 1.8}, {});
  ASSERT_EQ(pair.grid.row_count(), 1);
  ASSERT_TRUE(pair.occupy(0, 0, 10));
  ASSERT_TRUE(pair.occupy(0, 14 - 5e-10, 20));
  const auto spot = pair.expect_same_spot({10, 0}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_DOUBLE_EQ(spot->x, 10.0);
}

// Known defect, recorded rather than fixed (open in ROADMAP.md): the row loop
// stops once d * row_height exceeds the best cost, but a target between
// rows sits only (d - 1/2) row heights from a row at distance d. Row 1 is
// free at x = 50 for cost 1.1; the search returns (50.6, 0) at cost 1.3.
TEST(RowGridOracle, KnownDefectOffRowTargetStopsOneRowEarly) {
  GridPair pair({0, 0, 100, 3.6}, {});
  ASSERT_TRUE(pair.occupy(0, 49.0, 1.6));
  const auto spot = pair.expect_same_spot({50, 0.7}, 4);
  ASSERT_TRUE(spot.has_value());
  EXPECT_NEAR(spot->x, 50.6, 1e-9);
  EXPECT_EQ(spot->y, 0.0);
  EXPECT_TRUE(pair.grid.is_free(1, 50, 4));
}

TEST(RowGrid, SearchWorkIsCounted) {
  RowGrid grid({0, 0, 100, 3.6}, {});
  ASSERT_TRUE(grid.occupy(0, 0, 100));
  const obs::CountersSnapshot before = obs::counters_snapshot();
  ASSERT_TRUE(grid.find_nearest_free({50, 0}, 4).has_value());
  const obs::CountersSnapshot delta =
      obs::counters_delta(before, obs::counters_snapshot());
  // Full row 0 costs two steps (the gap at the target and the one before
  // its only interval) and is probed twice at distance 0, since the first
  // probe finds nothing; empty row 1 costs one step.
  EXPECT_EQ(delta.counters.at("place.legalize.row_probes"), 3);
  EXPECT_EQ(delta.counters.at("place.legalize.gap_steps"), 5);
}

// build_occupancy loads whole rows at once; it must end in the same grid as
// occupying every live cell one by one in design order, where the first of
// two overlapping cells wins and the later one is ignored.
TEST(RowGridOracle, BuildOccupancyMatchesOneByOneOccupancy) {
  const lib::Library library = lib::make_default_library();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    const geom::Rect core{0, 0, rng.uniform_real(30.0, 200.0), 9.0};
    netlist::Design design(&library, core);
    // Mostly abutting cells; with some seeds a few land on top of earlier
    // ones or stick out of the core.
    const bool overlaps = seed % 2 == 0;
    for (int row = 0; row < 5; ++row) {
      double x = 0.0;
      for (int i = 0; x < core.xhi; ++i) {
        const auto& combs = library.combs();
        const auto& gate = combs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(combs.size()) - 1))];
        double at = x;
        if (overlaps && rng.chance(0.1)) at -= rng.uniform_real(0.0, 2.0);
        design.add_comb("g" + std::to_string(row) + "_" + std::to_string(i),
                        &gate, {at, row * 1.8 + rng.uniform_real(-0.5, 0.5)});
        x += gate.width + (rng.chance(0.3) ? 0.2 : 0.0);
      }
    }
    std::vector<netlist::CellId> ignore;
    for (netlist::CellId id : design.live_cells())
      if (rng.chance(0.05)) ignore.push_back(id);

    const RowGrid loaded = build_occupancy(design, ignore);
    RowGrid one_by_one(core, {});
    std::vector<bool> skip(design.cell_count(), false);
    for (netlist::CellId id : ignore) skip[id.index] = true;
    for (netlist::CellId id : design.live_cells()) {
      if (skip[id.index]) continue;
      const netlist::Cell& cell = design.cell(id);
      one_by_one.occupy(one_by_one.row_of(cell.position.y), cell.position.x,
                        cell.width(), id);
    }
    for (int row = 0; row < loaded.row_count(); ++row) {
      const auto got = loaded.occupants(row, core.xlo - 10, core.width() + 20);
      const auto want =
          one_by_one.occupants(row, core.xlo - 10, core.width() + 20);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " row " << row;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cell, want[i].cell);
        EXPECT_EQ(got[i].x, want[i].x);
      }
    }
    for (int probe = 0; probe < 50; ++probe) {
      const geom::Point t{rng.uniform_real(core.xlo, core.xhi),
                          rng.uniform_real(core.ylo, core.yhi)};
      const double width = rng.uniform_real(0.2, 3.0);
      const auto got = loaded.find_nearest_free(t, width);
      const auto want = one_by_one.find_nearest_free(t, width);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got) EXPECT_EQ(*got, *want);
    }
  }
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
