#include "place/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
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

double RowGrid::gap_after(const Row& row, std::size_t i) const {
  const auto& intervals = row.intervals;
  const double gap_hi = i + 1 < intervals.size()
                            ? std::min(intervals[i + 1].x, core_.xhi)
                            : core_.xhi;
  return gap_hi - (intervals[i].x + intervals[i].width);
}

void RowGrid::rebuild_summary(Row& row, std::size_t first) const {
  const std::size_t n = row.intervals.size();
  row.block_max_gap.resize((n + kBlock - 1) / kBlock);
  for (std::size_t b = first / kBlock; b < row.block_max_gap.size(); ++b) {
    double widest = -std::numeric_limits<double>::infinity();
    for (std::size_t i = b * kBlock; i < std::min(n, (b + 1) * kBlock); ++i)
      widest = std::max(widest, gap_after(row, i));
    row.block_max_gap[b] = widest;
  }
}

namespace {

// First interval starting at or after x.
template <typename Intervals>
auto first_at_or_after(Intervals& intervals, double x) {
  return std::partition_point(intervals.begin(), intervals.end(),
                              [x](const auto& iv) { return iv.x < x; });
}

}  // namespace

bool RowGrid::is_free(int row, double x, double width) const {
  if (row < 0 || row >= row_count()) return false;
  if (x < core_.xlo - 1e-9 || x + width > core_.xhi + 1e-9) return false;
  const auto& intervals = rows_[row].intervals;
  auto it = first_at_or_after(intervals, x);
  if (it != intervals.end() && it->x < x + width - 1e-9) return false;
  if (it != intervals.begin()) {
    --it;
    if (it->x + it->width > x + 1e-9) return false;
  }
  return true;
}

bool RowGrid::occupy(int row, double x, double width, netlist::CellId cell) {
  if (!is_free(row, x, width)) return false;
  Row& r = rows_[row];
  const auto it = first_at_or_after(r.intervals, x);
  // An interval already starting at x keeps its slot (a degenerate
  // zero-width occupant can pass is_free there).
  if (it != r.intervals.end() && it->x == x) return true;
  const std::size_t at = static_cast<std::size_t>(it - r.intervals.begin());
  r.intervals.insert(it, Interval{x, width, cell});
  rebuild_summary(r, at == 0 ? 0 : at - 1);
  return true;
}

void RowGrid::release(int row, double x) {
  MBRC_ASSERT(row >= 0 && row < row_count());
  Row& r = rows_[row];
  const auto it = first_at_or_after(r.intervals, x);
  MBRC_ASSERT_MSG(it != r.intervals.end() && it->x == x,
                  "release of unoccupied interval");
  const std::size_t at = static_cast<std::size_t>(it - r.intervals.begin());
  r.intervals.erase(it);
  rebuild_summary(r, at == 0 ? 0 : at - 1);
}

std::vector<RowGrid::Occupant> RowGrid::occupants(int row, double x,
                                                  double width) const {
  std::vector<Occupant> result;
  if (row < 0 || row >= row_count()) return result;
  const auto& intervals = rows_[row].intervals;
  auto it = first_at_or_after(intervals, x);
  if (it != intervals.begin()) {
    const auto prev = std::prev(it);
    if (prev->x + prev->width > x + 1e-9)
      result.push_back({prev->x, prev->width, prev->cell});
  }
  for (; it != intervals.end() && it->x < x + width - 1e-9; ++it)
    result.push_back({it->x, it->width, it->cell});
  return result;
}

std::optional<double> RowGrid::best_x_in_row(int row, double target_x,
                                             double width, double budget,
                                             Work& work) const {
  const Row& r = rows_[row];
  const auto& intervals = r.intervals;
  const std::size_t n = intervals.size();
  const double lo = core_.xlo;
  const double hi = core_.xhi - width;
  if (hi < lo) return std::nullopt;

  double best = std::numeric_limits<double>::quiet_NaN();
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](double gap_lo, double gap_hi) -> bool {
    ++work.gap_steps;
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
  // A gap whose nearest point is this far out can neither beat the row's
  // best so far nor the caller's budget; neither can any gap beyond it.
  auto too_far = [&](double distance) {
    return distance > best_cost || distance > budget;
  };
  auto end_of = [&](std::size_t i) {
    return intervals[i].x + intervals[i].width;
  };
  auto start_of = [&](std::size_t i) {  // core edge past the last interval
    return i < n ? std::min(intervals[i].x, core_.xhi) : core_.xhi;
  };
  // Every gap of a block whose widest gap is this narrow fails `consider`.
  auto block_too_narrow = [&](std::size_t i) {
    return r.block_max_gap[i / kBlock] < width - 1e-9;
  };

  // Outward walk from the gap straddling target_x instead of scanning the
  // whole row: away from that gap the nearest feasible position per gap
  // moves strictly away from the target, so on each side the first gap
  // wide enough for `width` is that side's best and the walk stops there.
  const std::size_t right_begin = static_cast<std::size_t>(
      first_at_or_after(intervals, target_x) - intervals.begin());
  consider(right_begin == 0 ? lo : end_of(right_begin - 1),
           start_of(right_begin));

  // Gaps entirely right of the target: gap i follows interval i (cost =
  // gap start - target, rising).
  for (std::size_t i = right_begin; i < n;) {
    if (block_too_narrow(i)) {
      // Interval ends rise along the row, so the block's last gap is the
      // farthest one skipped.
      ++work.gap_steps;
      const std::size_t block_end = std::min(n, (i / kBlock + 1) * kBlock);
      if (too_far(end_of(block_end - 1) - target_x)) break;
      i = block_end;
      continue;
    }
    if (consider(end_of(i), start_of(i + 1))) break;
    if (too_far(end_of(i) - target_x)) break;
    ++i;
  }

  // Gaps entirely left of the target: the gap ending at interval j (cost
  // rising as the walk descends). Gap j follows interval j - 1, so it sits
  // in that interval's block; the gap before interval 0 is in none.
  for (std::size_t j = right_begin; j > 0;) {
    --j;
    if (j > 0 && block_too_narrow(j - 1)) {
      ++work.gap_steps;
      const std::size_t block_begin = (j - 1) / kBlock * kBlock;
      if (too_far(target_x - start_of(block_begin + 1))) break;
      j = block_begin + 1;
      continue;
    }
    if (consider(j == 0 ? lo : end_of(j - 1), start_of(j))) break;
    if (too_far(target_x - start_of(j))) break;
  }

  if (std::isnan(best)) return std::nullopt;
  return best;
}

std::optional<geom::Point> RowGrid::find_nearest_free(geom::Point t,
                                                      double width) const {
  static obs::Counter& c_probes = obs::counter("place.legalize.row_probes");
  static obs::Counter& c_steps = obs::counter("place.legalize.gap_steps");
  Work work;
  const int center = row_of(t.y);
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<geom::Point> best;
  for (int d = 0; d < row_count(); ++d) {
    if (center - d < 0 && center + d >= row_count()) break;
    // Once even the vertical distance alone exceeds the best found cost,
    // no further row can win. (A target between rows sits only (d - 1/2)
    // row heights from row d, so this can stop one row early: a known
    // defect, pinned by RowGridOracle.KnownDefectOffRowTargetStopsOneRowEarly.)
    if (best && d * options_.row_height > best_cost) break;
    // d == 0 visits the center row twice; the second pass is a no-op since
    // it cannot beat the identical first pass.
    for (const int row : {center - d, center + d}) {
      if (row < 0 || row >= row_count()) continue;
      const double dy = std::abs(row_y(row) - t.y);
      if (dy >= best_cost) continue;
      // The row only matters if it beats best_cost, so its search may stop
      // past best_cost - dy. The slack keeps that cut conservative under
      // rounding; the strict test below still makes every decision.
      ++work.row_probes;
      const auto x = best_x_in_row(row, t.x, width, best_cost - dy + 1e-6,
                                   work);
      if (!x) continue;
      const double cost = dy + std::abs(*x - t.x);
      if (cost < best_cost) {
        best_cost = cost;
        best = geom::Point{*x, row_y(row)};
      }
    }
  }
  c_probes.add(work.row_probes);
  c_steps.add(work.gap_steps);
  return best;
}

RowGrid build_occupancy(const netlist::Design& design,
                        const std::vector<netlist::CellId>& ignore,
                        RowGridOptions options) {
  RowGrid grid(design.core(), options);
  std::vector<bool> skip(design.cell_count(), false);
  for (netlist::CellId id : ignore) skip[id.index] = true;

  // Bulk load: collect each row's in-core cells in design order, then sort
  // them into place at once instead of inserting one by one.
  std::vector<std::vector<RowGrid::Interval>> pending(grid.rows_.size());
  const geom::Rect& core = grid.core();
  for (netlist::CellId id : design.live_cells()) {
    if (skip[id.index]) continue;
    const netlist::Cell& cell = design.cell(id);
    if (cell.kind == netlist::CellKind::kPort) continue;
    const double x = cell.position.x;
    const double width = cell.width();
    if (x < core.xlo - 1e-9 || x + width > core.xhi + 1e-9) continue;
    pending[static_cast<std::size_t>(grid.row_of(cell.position.y))]
        .push_back({x, width, id});
  }
  for (std::size_t row = 0; row < pending.size(); ++row) {
    std::vector<RowGrid::Interval>& cells = pending[row];
    std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
      if (a.x != b.x) return a.x < b.x;
      return a.cell.index < b.cell.index;
    });
    // When no two sorted neighbours would conflict in either insertion
    // order (is_free's two tests), occupying one by one in any order keeps
    // every cell, so the sorted array is the result. Otherwise replay the
    // row in design order so the first occupant wins, as one-by-one
    // occupancy always did: overlapping cells in the incoming placement
    // are simply ignored (the generator produces legal input).
    bool disjoint = true;
    for (std::size_t i = 1; i < cells.size() && disjoint; ++i) {
      const auto& a = cells[i - 1];
      const auto& b = cells[i];
      disjoint = a.x < b.x && !(a.x + a.width > b.x + 1e-9) &&
                 !(b.x < a.x + a.width - 1e-9);
    }
    RowGrid::Row& r = grid.rows_[row];
    if (disjoint) {
      r.intervals = std::move(cells);
      grid.rebuild_summary(r, 0);
      continue;
    }
    std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
      return a.cell.index < b.cell.index;
    });
    for (const auto& c : cells)
      grid.occupy(static_cast<int>(row), c.x, c.width, c.cell);
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
