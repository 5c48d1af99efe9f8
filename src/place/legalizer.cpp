#include "place/legalizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mbrc::place {

RowGrid::RowGrid(geom::Rect core, RowGridOptions options)
    : core_(core), options_(options) {
  MBRC_ASSERT(!core.is_empty());
  const int rows =
      std::max(1, static_cast<int>(core.height() / options.row_height));
  rows_.resize(rows);
}

double RowGrid::row_y(int row) const {
  return core_.ylo + row * options_.row_height;
}

int RowGrid::row_of(double y) const {
  const int row = static_cast<int>(std::floor((y - core_.ylo) /
                                              options_.row_height + 0.5));
  return std::clamp(row, 0, row_count() - 1);
}

double RowGrid::snap_x(double x) const {
  const double rel = x - core_.xlo;
  return core_.xlo + std::floor(rel / options_.site_width) * options_.site_width;
}

bool RowGrid::is_free(int row, double x, double width) const {
  if (row < 0 || row >= row_count()) return false;
  if (x < core_.xlo - 1e-9 || x + width > core_.xhi + 1e-9) return false;
  const auto& intervals = rows_[row].intervals;
  auto it = intervals.lower_bound(x);
  if (it != intervals.end() && it->first < x + width - 1e-9) return false;
  if (it != intervals.begin()) {
    --it;
    if (it->first + it->second.width > x + 1e-9) return false;
  }
  return true;
}

bool RowGrid::occupy(int row, double x, double width, netlist::CellId cell) {
  if (!is_free(row, x, width)) return false;
  rows_[row].intervals.emplace(x, Interval{width, cell});
  return true;
}

void RowGrid::release(int row, double x) {
  MBRC_ASSERT(row >= 0 && row < row_count());
  auto& intervals = rows_[row].intervals;
  const auto it = intervals.find(x);
  MBRC_ASSERT_MSG(it != intervals.end(), "release of unoccupied interval");
  intervals.erase(it);
}

std::vector<RowGrid::Occupant> RowGrid::occupants(int row, double x,
                                                  double width) const {
  std::vector<Occupant> result;
  if (row < 0 || row >= row_count()) return result;
  const auto& intervals = rows_[row].intervals;
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

std::optional<double> RowGrid::best_x_in_row(int row, double target_x,
                                             double width) const {
  const auto& intervals = rows_[row].intervals;
  const double lo = core_.xlo;
  const double hi = core_.xhi - width;
  if (hi < lo) return std::nullopt;

  double best = std::numeric_limits<double>::quiet_NaN();
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](double gap_lo, double gap_hi) -> bool {
    if (gap_hi - gap_lo < width - 1e-9) return false;
    // The tolerance admits a gap up to 1e-9 narrower than the cell; keep
    // the clamp's upper bound at or above its lower one.
    double x =
        std::clamp(target_x, gap_lo, std::max(gap_lo, gap_hi - width));
    x = std::max(gap_lo, snap_x(x));
    if (x + width > gap_hi + 1e-9) x -= options_.site_width;
    if (x < gap_lo - 1e-9) return false;
    const double cost = std::abs(x - target_x);
    // Equal costs keep the leftmost x (the ascending scan this replaces
    // kept the first minimum it met).
    if (cost < best_cost || (cost == best_cost && x < best)) {
      best_cost = cost;
      best = x;
    }
    return true;
  };

  // Outward walk from the gap straddling target_x instead of scanning the
  // whole row: away from that gap the nearest feasible position per gap
  // moves strictly away from the target, so on each side the first gap
  // wide enough for `width` is that side's best and the walk stops there.
  // With packed rows this is O(1)-ish per probe where the full scan was
  // O(intervals in the row) — the dominant cost of large-design
  // legalization and benchmark generation.
  const auto right_begin = intervals.lower_bound(target_x);
  const double straddle_lo =
      right_begin == intervals.begin()
          ? lo
          : std::prev(right_begin)->first + std::prev(right_begin)->second.width;
  const double straddle_hi =
      right_begin == intervals.end() ? core_.xhi
                                     : std::min(right_begin->first, core_.xhi);
  consider(straddle_lo, straddle_hi);

  // Gaps entirely right of the target (cost = gap start - target, rising).
  for (auto it = right_begin; it != intervals.end();) {
    const double gap_lo = it->first + it->second.width;
    ++it;
    const double gap_hi =
        it == intervals.end() ? core_.xhi : std::min(it->first, core_.xhi);
    if (consider(gap_lo, gap_hi)) break;
    if (gap_lo - target_x > best_cost) break;  // even wider gaps sit further
  }

  // Gaps entirely left of the target (cost rising as the walk descends).
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

std::optional<geom::Point> RowGrid::find_nearest_free(geom::Point t,
                                                      double width) const {
  const int center = row_of(t.y);
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<geom::Point> best;
  for (int d = 0; d < row_count(); ++d) {
    if (center - d < 0 && center + d >= row_count()) break;
    // Once even the vertical distance alone exceeds the best found cost,
    // no further row can win.
    if (best && d * options_.row_height > best_cost) break;
    // d == 0 visits the center row twice; the second pass is a no-op since
    // it cannot beat the identical first pass.
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

RowGrid build_occupancy(const netlist::Design& design,
                        const std::vector<netlist::CellId>& ignore,
                        RowGridOptions options) {
  RowGrid grid(design.core(), options);
  std::vector<bool> skip(design.cell_count(), false);
  for (netlist::CellId id : ignore) skip[id.index] = true;

  for (netlist::CellId id : design.live_cells()) {
    if (skip[id.index]) continue;
    const netlist::Cell& cell = design.cell(id);
    if (cell.kind == netlist::CellKind::kPort) continue;
    const int row = grid.row_of(cell.position.y);
    // Best effort: overlapping cells in the incoming placement are simply
    // ignored for occupancy purposes (the generator produces legal input).
    grid.occupy(row, cell.position.x, cell.width(), id);
  }
  return grid;
}

namespace {

// Whether every occupant of a span may be pushed aside for a register.
bool all_evictable(const netlist::Design& design,
                   const std::vector<RowGrid::Occupant>& occupants) {
  for (const auto& o : occupants) {
    if (!o.cell.valid()) return false;  // anonymous blockage
    const netlist::Cell& cell = design.cell(o.cell);
    if (cell.fixed) return false;
    if (cell.kind != netlist::CellKind::kComb &&
        cell.kind != netlist::CellKind::kClockBuffer)
      return false;  // never displace registers or ports
  }
  return true;
}

}  // namespace

LegalizeResult legalize_cells(netlist::Design& design, RowGrid& grid,
                              const std::vector<netlist::CellId>& cells,
                              const LegalizeOptions& options) {
  LegalizeResult result;
  result.success = true;

  for (netlist::CellId id : cells) {
    netlist::Cell& cell = design.cell(id);
    const double width = cell.width();
    const geom::Point target = cell.position;

    const auto free_spot = grid.find_nearest_free(target, width);
    const double free_cost = free_spot
                                 ? geom::manhattan(target, *free_spot)
                                 : std::numeric_limits<double>::infinity();

    // Candidate eviction spots: the snapped target x in nearby rows.
    struct Choice {
      geom::Point position;
      std::vector<RowGrid::Occupant> evicted;
      double cost = std::numeric_limits<double>::infinity();
    };
    Choice best;
    if (options.allow_eviction && free_cost > options.prefer_free_within) {
      const int center = grid.row_of(target.y);
      for (int dr = -options.eviction_row_search;
           dr <= options.eviction_row_search; ++dr) {
        const int row = center + dr;
        if (row < 0 || row >= grid.row_count()) continue;
        double x = grid.snap_x(std::clamp(
            target.x, grid.core().xlo, grid.core().xhi - width));
        if (x < grid.core().xlo || x + width > grid.core().xhi + 1e-9)
          continue;
        const auto occupants = grid.occupants(row, x, width);
        if (!all_evictable(design, occupants)) continue;
        double evicted_width = 0.0;
        for (const auto& o : occupants) evicted_width += o.width;
        const geom::Point pos{x, grid.row_y(row)};
        const double cost = geom::manhattan(target, pos) +
                            options.eviction_penalty * evicted_width;
        if (cost < best.cost) {
          best.cost = cost;
          best.position = pos;
          best.evicted = occupants;
        }
      }
    }

    geom::Point placed;
    if (best.cost < free_cost) {
      // Evict, then occupy.
      for (const auto& o : best.evicted)
        grid.release(grid.row_of(best.position.y), o.x);
      const bool ok =
          grid.occupy(grid.row_of(best.position.y), best.position.x, width, id);
      MBRC_ASSERT_MSG(ok, "eviction left the span occupied");
      placed = best.position;

      // Re-legalize the evicted combinational cells nearby.
      for (const auto& o : best.evicted) {
        netlist::Cell& evicted = design.cell(o.cell);
        const auto spot = grid.find_nearest_free(evicted.position, o.width);
        if (!spot) {
          result.success = false;
          continue;
        }
        const bool placed_ok =
            grid.occupy(grid.row_of(spot->y), spot->x, o.width, o.cell);
        MBRC_ASSERT(placed_ok);
        result.evicted_displacement +=
            geom::manhattan(evicted.position, *spot);
        evicted.position = *spot;
        design.notify_moved(o.cell);
        ++result.cells_evicted;
      }
    } else if (free_spot) {
      const bool ok =
          grid.occupy(grid.row_of(free_spot->y), free_spot->x, width, id);
      MBRC_ASSERT_MSG(ok, "legalizer chose an occupied interval");
      placed = *free_spot;
    } else {
      result.success = false;
      continue;
    }

    const double moved = geom::manhattan(target, placed);
    if (moved > 1e-12) {
      ++result.cells_moved;
      result.total_displacement += moved;
      result.max_displacement = std::max(result.max_displacement, moved);
    }
    // Journal any exact position change (the cells_moved epsilon above is a
    // reporting convention; incremental observers need every bit change).
    if (placed.x != cell.position.x || placed.y != cell.position.y)
      design.notify_moved(id);
    cell.position = placed;
  }
  return result;
}

}  // namespace mbrc::place
