// MBR placement (Sec. 4.2): choose the location of a newly composed MBR
// that minimizes the half-perimeter wire-length of its D and Q pin
// connections, constrained to the members' common timing-feasible region.
//
// Every pin contributes wl_i = (max(xh, x+dx) - min(xl, x+dx)) +
// (max(yh, y+dy) - min(yl, y+dy)), with (x, y) the MBR's lower-left corner
// and (dx, dy) the pin offset inside the cell. The paper solves this as a
// linear program with helper variables for the min/max terms. The objective
// is separable in x and y, and each axis is a sum of flat-valley terms, so
// it is convex piecewise linear and an O(n log n) per-axis weighted median
// finds the LP's exact optimum (DESIGN.md §5). Tests check it against
// enumeration of every breakpoint (tests/solver_oracles.hpp).
#pragma once

#include <vector>

#include "mbr/mapping.hpp"

namespace mbrc::mbr {

/// One pin's connectivity: the bounding box of the fixed pins it connects
/// to, and the pin's offset inside the MBR cell.
struct PinBox {
  geom::Rect box;      // bbox of the already-placed pins on the net
  geom::Point offset;  // (dx, dy) of the MBR pin inside the cell
};

/// Collects the D/Q pin boxes of a mapped candidate from the members'
/// current connectivity (the members themselves are excluded from each box).
/// Pins on single-pin nets are skipped.
std::vector<PinBox> collect_pin_boxes(const netlist::Design& design,
                                      const CompatibilityGraph& graph,
                                      const Candidate& candidate,
                                      const Mapping& mapping);

/// Total HPWL objective of placing the cell's lower-left corner at `corner`.
double placement_objective(const std::vector<PinBox>& boxes,
                           geom::Point corner);

/// Exact minimizer via per-axis weighted median, constrained to
/// `corner_region` (the region of legal lower-left corners).
geom::Point optimal_position_median(const std::vector<PinBox>& boxes,
                                    const geom::Rect& corner_region);

// Empty: the weighted median is the only solver. Kept because
// mbrcbench/cpp/batch.cpp still passes FlowOptions::placement to place_mbr.
struct PlacementOptions {};

/// End-to-end placement of a mapped candidate: derives the corner region
/// from the candidate's common feasible region and the cell dimensions,
/// collects pin boxes and solves. Falls back to the region center when the
/// MBR has no connected pins.
geom::Point place_mbr(const netlist::Design& design,
                      const CompatibilityGraph& graph,
                      const Candidate& candidate, const Mapping& mapping,
                      const PlacementOptions& options = {});

}  // namespace mbrc::mbr
