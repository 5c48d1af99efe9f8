#include "mbr/placement.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mbrc::mbr {

std::vector<PinBox> collect_pin_boxes(const netlist::Design& design,
                                      const CompatibilityGraph& graph,
                                      const Candidate& candidate,
                                      const Mapping& mapping) {
  (void)candidate;  // the mapping's member order fully determines the boxes
  std::vector<PinBox> boxes;
  const lib::RegisterCell& cell = *mapping.cell;

  for (std::size_t i = 0; i < mapping.member_order.size(); ++i) {
    const RegisterInfo& info = graph.node(mapping.member_order[i]);
    const netlist::CellId member = info.cell;
    const int base = mapping.bit_offset[i];
    for (int bit = 0; bit < info.bits; ++bit) {
      const int mbr_bit = base + bit;
      // D pin: box over the net's pins other than the member's own.
      const auto add_box = [&](netlist::PinId own, geom::Point offset) {
        if (!own.valid()) return;
        const netlist::NetId net_id = design.pin(own).net;
        if (!net_id.valid()) return;
        const netlist::Net& net = design.net(net_id);
        geom::Rect box = geom::Rect::empty();
        int count = 0;
        if (net.driver.valid() && net.driver != own) {
          box = box.expand(design.pin_position(net.driver));
          ++count;
        }
        for (netlist::PinId s : net.sinks) {
          if (s == own) continue;
          box = box.expand(design.pin_position(s));
          ++count;
        }
        if (count == 0) return;
        boxes.push_back({box, offset});
      };
      add_box(design.register_d_pin(member, bit), cell.d_pin_offsets[mbr_bit]);
      add_box(design.register_q_pin(member, bit), cell.q_pin_offsets[mbr_bit]);
    }
  }
  return boxes;
}

double placement_objective(const std::vector<PinBox>& boxes,
                           geom::Point corner) {
  double total = 0.0;
  for (const PinBox& b : boxes) {
    const double px = corner.x + b.offset.x;
    const double py = corner.y + b.offset.y;
    total += std::max(b.box.xhi, px) - std::min(b.box.xlo, px);
    total += std::max(b.box.yhi, py) - std::min(b.box.ylo, py);
  }
  return total;
}

namespace {

// Minimizes sum_i of flat-valley terms over intervals [lo_i, hi_i]:
// f_i(t) = 0 inside the interval, growing with slope 1 outside. The
// derivative at t is |{hi_i < t}| - |{lo_i > t}|; the minimum sits where it
// first becomes >= 0. Result clamped to [bound_lo, bound_hi].
double valley_minimum(std::vector<double> lows, std::vector<double> highs,
                      double bound_lo, double bound_hi) {
  MBRC_ASSERT(!lows.empty() && lows.size() == highs.size());
  std::sort(lows.begin(), lows.end());
  std::sort(highs.begin(), highs.end());
  const std::size_t n = lows.size();

  // Sweep candidate points: all interval endpoints in ascending order.
  std::vector<double> points;
  points.reserve(2 * n);
  points.insert(points.end(), lows.begin(), lows.end());
  points.insert(points.end(), highs.begin(), highs.end());
  std::sort(points.begin(), points.end());

  double best = points.front();
  for (double t : points) {
    // Derivative immediately right of t.
    const auto below =
        std::lower_bound(highs.begin(), highs.end(), t) - highs.begin();
    const auto above = lows.end() - std::upper_bound(lows.begin(), lows.end(), t);
    const long deriv = static_cast<long>(below) - static_cast<long>(above);
    best = t;
    if (deriv >= 0) break;  // first non-negative derivative: minimum reached
  }
  MBRC_ASSERT(bound_lo <= bound_hi);
  return std::clamp(best, bound_lo, bound_hi);
}

}  // namespace

geom::Point optimal_position_median(const std::vector<PinBox>& boxes,
                                    const geom::Rect& corner_region) {
  if (boxes.empty()) return corner_region.center();
  std::vector<double> lx, hx, ly, hy;
  lx.reserve(boxes.size());
  hx.reserve(boxes.size());
  ly.reserve(boxes.size());
  hy.reserve(boxes.size());
  for (const PinBox& b : boxes) {
    lx.push_back(b.box.xlo - b.offset.x);
    hx.push_back(b.box.xhi - b.offset.x);
    ly.push_back(b.box.ylo - b.offset.y);
    hy.push_back(b.box.yhi - b.offset.y);
  }
  const double x = valley_minimum(std::move(lx), std::move(hx),
                                  corner_region.xlo, corner_region.xhi);
  const double y = valley_minimum(std::move(ly), std::move(hy),
                                  corner_region.ylo, corner_region.yhi);
  return {x, y};
}

geom::Point place_mbr(const netlist::Design& design,
                      const CompatibilityGraph& graph,
                      const Candidate& candidate, const Mapping& mapping,
                      const PlacementOptions& /*options*/) {
  const geom::Rect region = candidate.common_region;
  MBRC_ASSERT(!region.is_empty());
  // Region of legal lower-left corners: the cell must fit inside `region`
  // (degenerates to the region's lower-left when the cell is larger).
  geom::Rect corner{region.xlo, region.ylo,
                    std::max(region.xlo, region.xhi - mapping.cell->width),
                    std::max(region.ylo, region.yhi - mapping.cell->height)};

  const auto boxes = collect_pin_boxes(design, graph, candidate, mapping);
  return optimal_position_median(boxes, corner);
}

}  // namespace mbrc::mbr
