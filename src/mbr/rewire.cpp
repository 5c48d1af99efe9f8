#include "mbr/rewire.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

// The nets every splice source shares, connected in this order.
constexpr PinRole kSharedRoles[] = {PinRole::kClock, PinRole::kReset,
                                    PinRole::kSet, PinRole::kEnable,
                                    PinRole::kScanEnable};

}  // namespace

std::vector<CellId> splice_registers(Design& design,
                                     const std::vector<CellId>& sources,
                                     const std::vector<SpliceTarget>& targets) {
  MBRC_ASSERT(!sources.empty() && !targets.empty());

  // Capture the per-bit data nets in source bit order and the shared nets.
  std::vector<std::pair<NetId, NetId>> bits;  // (D, Q)
  for (CellId source : sources)
    for (int b = 0; b < design.cell(source).reg->bits; ++b)
      bits.emplace_back(design.pin(design.register_d_pin(source, b)).net,
                        design.pin(design.register_q_pin(source, b)).net);
  std::vector<NetId> shared;
  for (PinRole role : kSharedRoles)
    shared.push_back(design.register_control_net(sources.front(), role));
  const int gating_group = design.cell(sources.front()).gating_group;
  for (CellId source : sources) {
    MBRC_ASSERT_MSG(design.cell(source).gating_group == gating_group,
                    "splice sources must share the gating group");
    for (std::size_t r = 0; r < shared.size(); ++r)
      MBRC_ASSERT_MSG(
          design.register_control_net(source, kSharedRoles[r]) == shared[r],
          "splice sources must share clock and control nets");
  }
  std::size_t capacity = 0;
  for (const SpliceTarget& target : targets) capacity += target.cell->bits;
  MBRC_ASSERT_MSG(capacity >= bits.size() &&
                      capacity - targets.back().cell->bits < bits.size(),
                  "only the last splice target may have spare bits");

  for (CellId source : sources) design.remove_cell(source);

  std::vector<CellId> created;
  std::size_t next_bit = 0;
  for (const SpliceTarget& target : targets) {
    const CellId reg = design.add_register(target.name, target.cell,
                                           target.position);
    netlist::Cell& cell = design.cell(reg);
    cell.scan = target.scan;
    cell.gating_group = gating_group;

    for (std::size_t r = 0; r < shared.size(); ++r) {
      if (!shared[r].valid()) continue;
      const PinId pin = design.register_control_pin(reg, kSharedRoles[r]);
      MBRC_ASSERT_MSG(pin.valid(), "target cell lacks a required control pin");
      design.connect(pin, shared[r]);
    }
    for (int b = 0; b < target.cell->bits && next_bit < bits.size();
         ++b, ++next_bit) {
      const auto [d, q] = bits[next_bit];
      if (d.valid()) design.connect(design.register_d_pin(reg, b), d);
      if (q.valid()) design.connect(design.register_q_pin(reg, b), q);
    }
    created.push_back(reg);
  }
  return created;
}

netlist::CellId rewire_candidate(netlist::Design& design,
                                 const CompatibilityGraph& graph,
                                 const Candidate& candidate,
                                 const Mapping& mapping, geom::Point position,
                                 const std::string& name) {
  MBRC_ASSERT(candidate.nodes.size() >= 2);
  const RegisterInfo& first = graph.node(candidate.nodes.front());

  // Merged scan attributes: a single shared section only when every member
  // belongs to it; the merged order slot is the smallest member order.
  netlist::ScanInfo scan;
  scan.partition = first.scan.partition;
  bool common_section = true;
  int min_order = -1;
  for (int node : candidate.nodes) {
    const netlist::ScanInfo& s = graph.node(node).scan;
    if (s.section != first.scan.section) common_section = false;
    if (s.order >= 0 && (min_order < 0 || s.order < min_order))
      min_order = s.order;
  }
  if (common_section && first.scan.section >= 0) {
    scan.section = first.scan.section;
    scan.order = min_order;
  }

  // The members in MBR bit order.
  std::vector<CellId> sources;
  for (int node : mapping.member_order)
    sources.push_back(graph.node(node).cell);
  return splice_registers(design, sources,
                          {{mapping.cell, position, name, scan}})
      .front();
}

namespace {

// The scan elements of a register: (SI, SO) pin pairs in chain order.
// Internal-chain (and 1-bit) cells expose a single pair; per-bit cells one
// pair per bit.
std::vector<std::pair<PinId, PinId>> scan_elements(const Design& design,
                                                   CellId reg) {
  std::vector<PinId> si, so;
  for (PinId pin_id : design.cell(reg).pins) {
    const netlist::Pin& p = design.pin(pin_id);
    if (p.role == PinRole::kScanIn) si.push_back(pin_id);
    if (p.role == PinRole::kScanOut) so.push_back(pin_id);
  }
  auto by_bit = [&](PinId a, PinId b) {
    return design.pin(a).bit < design.pin(b).bit;
  };
  std::sort(si.begin(), si.end(), by_bit);
  std::sort(so.begin(), so.end(), by_bit);
  MBRC_ASSERT(si.size() == so.size());
  std::vector<std::pair<PinId, PinId>> out;
  for (std::size_t i = 0; i < si.size(); ++i) out.emplace_back(si[i], so[i]);
  return out;
}

}  // namespace

RestitchStats restitch_scan_chains(netlist::Design& design) {
  RestitchStats stats;

  std::map<int, std::vector<CellId>> partitions;
  for (CellId reg : design.registers()) {
    const netlist::Cell& cell = design.cell(reg);
    if (!cell.reg->function.is_scan || cell.scan.partition < 0) continue;
    partitions[cell.scan.partition].push_back(reg);
  }

  for (auto& [partition, regs] : partitions) {
    ++stats.chains;
    stats.registers += static_cast<int>(regs.size());

    // Drop the old chain links.
    for (CellId reg : regs)
      for (auto [si, so] : scan_elements(design, reg)) {
        design.disconnect(si);
        design.disconnect(so);
      }

    // Chain order: ordered sections first, in (section, order) sequence;
    // then the free registers by geometric nearest-neighbor from the tail.
    std::vector<CellId> ordered, free_regs;
    for (CellId reg : regs) {
      (design.cell(reg).scan.section >= 0 ? ordered : free_regs)
          .push_back(reg);
    }
    std::sort(ordered.begin(), ordered.end(), [&](CellId a, CellId b) {
      const netlist::ScanInfo& sa = design.cell(a).scan;
      const netlist::ScanInfo& sb = design.cell(b).scan;
      if (sa.section != sb.section) return sa.section < sb.section;
      if (sa.order != sb.order) return sa.order < sb.order;
      return a < b;
    });

    std::vector<CellId> chain = std::move(ordered);
    geom::Point cursor = chain.empty()
                             ? geom::Point{design.core().xlo, design.core().ylo}
                             : design.cell(chain.back()).position;
    std::vector<CellId> remaining = std::move(free_regs);
    while (!remaining.empty()) {
      std::size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        const double d =
            geom::manhattan(cursor, design.cell(remaining[i]).position);
        if (d < best_dist) {
          best_dist = d;
          best = i;
        }
      }
      chain.push_back(remaining[best]);
      cursor = design.cell(remaining[best]).position;
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
    }

    // Link consecutive scan elements with fresh nets.
    PinId previous_so;
    for (CellId reg : chain) {
      for (auto [si, so] : scan_elements(design, reg)) {
        if (previous_so.valid()) {
          const NetId net = design.create_net(false);
          design.connect(previous_so, net);
          design.connect(si, net);
          ++stats.links;
        }
        previous_so = so;
      }
    }
  }
  return stats;
}

}  // namespace mbrc::mbr
