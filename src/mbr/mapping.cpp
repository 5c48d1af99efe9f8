#include "mbr/mapping.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace mbrc::mbr {

std::optional<Mapping> map_candidate(const netlist::Design& design,
                                     const CompatibilityGraph& graph,
                                     const Candidate& candidate,
                                     const MappingOptions& options,
                                     std::string* why) {
  MBRC_ASSERT(!candidate.nodes.empty());
  const RegisterInfo& first = graph.node(candidate.nodes.front());

  lib::MappingRequest request;
  request.function = first.lib_cell->function;
  request.bits = candidate.mapped_width;
  request.needs_per_bit_scan = candidate.needs_per_bit_scan;
  request.min_drive_resistance = std::numeric_limits<double>::infinity();
  double replaced_area = 0.0;
  for (int node : candidate.nodes) {
    const RegisterInfo& info = graph.node(node);
    request.min_drive_resistance =
        std::min(request.min_drive_resistance, info.drive_resistance);
    replaced_area += info.lib_cell->area;
  }

  const lib::RegisterCell* cell = design.library().map_register(request);
  if (cell == nullptr) {
    if (why) *why = "no library cell for function/width";
    return std::nullopt;
  }

  if (candidate.is_incomplete()) {
    // The area rule binds on the actual cell. If the drive-matched choice
    // busts the budget, fall back to the strongest variant that fits --
    // losing a little drive is better than abandoning the merge (the sizing
    // pass revisits the drive afterwards anyway).
    const double limit =
        replaced_area * (1.0 + options.incomplete_area_overhead);
    if (cell->area > limit) {
      const lib::Library& library = design.library();
      const auto usable =
          request.needs_per_bit_scan && request.function.is_scan
              ? library.drive_variants(request.function, request.bits,
                                       lib::ScanStyle::kPerBitPins)
              : library.cells_for(request.function, request.bits);
      const lib::RegisterCell* best = nullptr;
      for (const lib::RegisterCell* variant : usable) {
        if (variant->area > limit) continue;
        if (best == nullptr ||
            variant->drive_resistance < best->drive_resistance)
          best = variant;
      }
      if (best == nullptr) {
        if (why) *why = "incomplete MBR exceeds the area-overhead budget";
        return std::nullopt;
      }
      cell = best;
    }
  }

  // Bit order: scan-ordered members first in chain order (so an internal
  // scan chain remains monotone), then the rest left-to-right/bottom-up for
  // tidy D/Q wiring.
  Mapping mapping;
  mapping.cell = cell;
  mapping.member_order = candidate.nodes;
  std::sort(mapping.member_order.begin(), mapping.member_order.end(),
            [&](int a, int b) {
              const RegisterInfo& ra = graph.node(a);
              const RegisterInfo& rb = graph.node(b);
              const bool ordered_a = ra.scan.section >= 0;
              const bool ordered_b = rb.scan.section >= 0;
              if (ordered_a != ordered_b) return ordered_a;  // sections first
              if (ordered_a && ra.scan.section != rb.scan.section)
                return ra.scan.section < rb.scan.section;
              if (ordered_a && ra.scan.order != rb.scan.order)
                return ra.scan.order < rb.scan.order;
              const geom::Point ca = ra.center();
              const geom::Point cb = rb.center();
              if (ca.x != cb.x) return ca.x < cb.x;
              if (ca.y != cb.y) return ca.y < cb.y;
              return a < b;
            });

  int offset = 0;
  for (int node : mapping.member_order) {
    mapping.bit_offset.push_back(offset);
    offset += graph.node(node).bits;
  }
  MBRC_ASSERT(offset == candidate.bits && offset <= cell->bits);
  return mapping;
}

}  // namespace mbrc::mbr
