// Row-based placement model and Tetris-style legalizer.
//
// The core area is divided into standard-cell rows of fixed height and
// sites of fixed width. RowGrid tracks occupied intervals per row (with the
// occupying cell) so cells can be packed abutted. Each row is a sorted flat
// array with a per-block summary of its widest gap, so the nearest-spot
// search skips packed stretches block by block. The legalizer supports the
// two uses MBR composition needs:
//   - building an initially legal placement (benchmark generator),
//   - incremental legalization of freshly placed MBR cells after the
//     replaced registers were removed (Sec. 4.2), minimizing displacement
//     from the LP-suggested location. Registers have placement priority:
//     small combinational cells in the way are evicted and re-legalized
//     nearby, exactly the behaviour the paper relies on ("registers are
//     larger and often have higher placement priority, so smaller movement
//     of fewer registers helps minimize the placement disturbance").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "netlist/design.hpp"

namespace mbrc::place {

struct RowGridOptions {
  double row_height = 1.8;  // um
  double site_width = 0.2;  // um
};

/// Occupancy bookkeeping for legal placement: per row, the occupied
/// intervals sorted by start x, each remembering the occupying cell.
class RowGrid {
public:
  RowGrid(geom::Rect core, RowGridOptions options = {});

  int row_count() const { return static_cast<int>(rows_.size()); }
  double row_y(int row) const;
  int row_of(double y) const;
  const geom::Rect& core() const { return core_; }
  const RowGridOptions& options() const { return options_; }

  /// Marks [x, x+width) in `row` occupied by `cell`. Returns false (no
  /// change) when it would overlap an existing interval or leave the core.
  bool occupy(int row, double x, double width,
              netlist::CellId cell = netlist::CellId{});

  /// Releases a previously occupied interval (exact start x required).
  void release(int row, double x);

  /// True when [x, x+width) in `row` is free and inside the core.
  bool is_free(int row, double x, double width) const;

  /// Cells whose intervals intersect [x, x+width) in `row`, with their
  /// interval start positions.
  struct Occupant {
    double x = 0.0;
    double width = 0.0;
    netlist::CellId cell;
  };
  std::vector<Occupant> occupants(int row, double x, double width) const;

  /// Nearest free position for a cell of `width` around target `t`,
  /// scanning rows outward from the target row. Returns the snapped
  /// lower-left position, or nullopt when the grid is hopelessly full.
  /// Adds its work to the counters place.legalize.row_probes and
  /// place.legalize.gap_steps.
  std::optional<geom::Point> find_nearest_free(geom::Point t,
                                               double width) const;

  /// Snaps x to the site grid (toward -inf).
  double snap_x(double x) const;

private:
  friend RowGrid build_occupancy(const netlist::Design&,
                                 const std::vector<netlist::CellId>&,
                                 RowGridOptions);

  /// Intervals per summary block: a block whose widest gap is too narrow
  /// costs the gap search one step instead of kBlock.
  static constexpr std::size_t kBlock = 16;

  struct Interval {
    double x = 0.0;
    double width = 0.0;
    netlist::CellId cell;
  };
  struct Row {
    // Sorted by x; neighbours overlap by at most the 1e-9 fit tolerance.
    std::vector<Interval> intervals;
    // block_max_gap[b]: the widest gap that follows an interval of block b
    // (intervals [b*kBlock, (b+1)*kBlock)), measured exactly as the search
    // measures it.
    std::vector<double> block_max_gap;
  };
  struct Work {
    std::int64_t row_probes = 0;
    std::int64_t gap_steps = 0;
  };

  /// Width of the gap after interval i (up to the next start or the core).
  double gap_after(const Row& row, std::size_t i) const;
  /// Recomputes the block summaries from the block holding interval
  /// `first` to the end of the row.
  void rebuild_summary(Row& row, std::size_t first) const;

  /// Free x closest to target_x in `row` for `width`; nullopt when full.
  /// Gaps farther than `budget` from the target may be skipped: the caller
  /// rejects any spot that far out.
  std::optional<double> best_x_in_row(int row, double target_x, double width,
                                      double budget, Work& work) const;

  geom::Rect core_;
  RowGridOptions options_;
  std::vector<Row> rows_;
};

struct LegalizeOptions {
  /// Take a free spot without evicting when it is at most this far from the
  /// target (um).
  double prefer_free_within = 6.0;
  /// Rows above/below the target row considered for eviction.
  int eviction_row_search = 3;
  /// Cost per um of evicted-cell width when comparing candidate spots
  /// (evicted cells are small and move by roughly their own span).
  double eviction_penalty = 0.3;
  bool allow_eviction = true;
};

struct LegalizeResult {
  bool success = false;
  double total_displacement = 0.0;  // um, over the placed cells themselves
  double max_displacement = 0.0;    // um
  int cells_moved = 0;
  int cells_evicted = 0;            // combinational cells pushed aside
  double evicted_displacement = 0.0;
};

/// Builds a RowGrid reflecting every live, placeable cell of `design`
/// except those in `ignore` (pass the cells about to be re-legalized).
RowGrid build_occupancy(const netlist::Design& design,
                        const std::vector<netlist::CellId>& ignore = {},
                        RowGridOptions options = {});

/// Legalizes `cells` (in the given order) into `grid`, moving each to the
/// nearest free location -- or, when the free options are far, evicting
/// combinational cells at the target and re-legalizing them nearby. Updates
/// the design's positions and the grid.
LegalizeResult legalize_cells(netlist::Design& design, RowGrid& grid,
                              const std::vector<netlist::CellId>& cells,
                              const LegalizeOptions& options = {});

}  // namespace mbrc::place
