// Differential oracle for splice_registers: reference copies of the merge
// and split surgery as separate routines (each capturing, removing and
// reconnecting on its own) run side by side with rewire_candidate and
// split_register on two copies of the same design. After every merge of a
// real plan, and after splitting every eligible MBR of a composed design,
// the two netlists must agree entity by entity -- cells, pins, nets with
// their driver and sink order -- and in topology_version.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "mbr/debank.hpp"
#include "mbr/flow.hpp"
#include "mbr/mapping.hpp"
#include "mbr/placement.hpp"
#include "mbr/rewire.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {
namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

NetId pin_net(const Design& design, PinId pin) {
  return pin.valid() ? design.pin(pin).net : NetId{};
}

// Reference merge: nets from the graph's register info, members removed in
// candidate order, the MBR connected clock -> controls -> D/Q bit by bit.
CellId reference_rewire(Design& design, const CompatibilityGraph& graph,
                        const Candidate& candidate, const Mapping& mapping,
                        geom::Point position, const std::string& name) {
  const RegisterInfo& first = graph.node(candidate.nodes.front());
  std::vector<std::pair<NetId, NetId>> bit_nets;
  for (int node : mapping.member_order) {
    const RegisterInfo& info = graph.node(node);
    for (int b = 0; b < info.bits; ++b)
      bit_nets.emplace_back(
          pin_net(design, design.register_d_pin(info.cell, b)),
          pin_net(design, design.register_q_pin(info.cell, b)));
  }
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

  for (int node : candidate.nodes) design.remove_cell(graph.node(node).cell);
  const CellId mbr = design.add_register(name, mapping.cell, position);
  design.cell(mbr).scan = scan;
  design.cell(mbr).gating_group = first.gating_group;
  if (first.clock_net.valid())
    design.connect(design.register_clock_pin(mbr), first.clock_net);
  const std::pair<PinRole, NetId> controls[] = {
      {PinRole::kReset, first.reset_net},
      {PinRole::kSet, first.set_net},
      {PinRole::kEnable, first.enable_net},
      {PinRole::kScanEnable, first.scan_enable_net}};
  for (const auto& [role, net] : controls)
    if (net.valid())
      design.connect(design.register_control_pin(mbr, role), net);
  for (std::size_t k = 0; k < bit_nets.size(); ++k) {
    const int bit = static_cast<int>(k);
    if (bit_nets[k].first.valid())
      design.connect(design.register_d_pin(mbr, bit), bit_nets[k].first);
    if (bit_nets[k].second.valid())
      design.connect(design.register_q_pin(mbr, bit), bit_nets[k].second);
  }
  return mbr;
}

// Reference split: the weakest non-per-bit-scan cell of the piece width,
// pieces spread over the original footprint, each connected clock ->
// controls -> D/Q.
std::vector<CellId> reference_split(Design& design, CellId cell_id,
                                    int piece_bits) {
  const netlist::Cell& cell = design.cell(cell_id);
  const lib::RegisterCell* piece = nullptr;
  for (const lib::RegisterCell* c :
       design.library().cells_for(cell.reg->function, piece_bits)) {
    if (c->scan_style == lib::ScanStyle::kPerBitPins) continue;
    if (piece == nullptr || c->drive_resistance > piece->drive_resistance)
      piece = c;
  }
  const int pieces = cell.reg->bits / piece_bits;
  std::vector<std::pair<NetId, NetId>> bits;
  for (int b = 0; b < cell.reg->bits; ++b)
    bits.emplace_back(design.pin(design.register_d_pin(cell_id, b)).net,
                      design.pin(design.register_q_pin(cell_id, b)).net);
  const auto control = [&](PinRole role) {
    return pin_net(design, design.register_control_pin(cell_id, role));
  };
  const PinRole roles[] = {PinRole::kClock, PinRole::kReset, PinRole::kSet,
                           PinRole::kEnable, PinRole::kScanEnable};
  std::vector<NetId> shared;
  for (PinRole role : roles) shared.push_back(control(role));
  const geom::Point origin = cell.position;
  const std::string base_name = cell.name;
  const netlist::ScanInfo scan = cell.scan;
  const int gating = cell.gating_group;
  const double original_width = cell.reg->width;

  design.remove_cell(cell_id);
  std::vector<CellId> created;
  for (int p = 0; p < pieces; ++p) {
    const double pitch = std::max(piece->width, original_width / pieces);
    const CellId made = design.add_register(
        base_name + "_p" + std::to_string(p), piece,
        {origin.x + p * pitch, origin.y});
    design.cell(made).scan = scan;
    design.cell(made).gating_group = gating;
    for (std::size_t r = 0; r < shared.size(); ++r)
      if (shared[r].valid())
        design.connect(design.register_control_pin(made, roles[r]),
                       shared[r]);
    for (int b = 0; b < piece_bits; ++b) {
      const auto [d, q] = bits[static_cast<std::size_t>(p * piece_bits + b)];
      if (d.valid()) design.connect(design.register_d_pin(made, b), d);
      if (q.valid()) design.connect(design.register_q_pin(made, b), q);
    }
    created.push_back(made);
  }
  return created;
}

// Entity-by-entity equality; reports the first difference.
void expect_same_netlist(const Design& a, const Design& b,
                         const std::string& where) {
  ASSERT_EQ(a.cell_count(), b.cell_count()) << where;
  ASSERT_EQ(a.pin_count(), b.pin_count()) << where;
  ASSERT_EQ(a.net_count(), b.net_count()) << where;
  EXPECT_EQ(a.topology_version(), b.topology_version()) << where;
  for (int i = 0; i < a.cell_count(); ++i) {
    const netlist::Cell& x = a.cell(CellId{i});
    const netlist::Cell& y = b.cell(CellId{i});
    ASSERT_TRUE(x.name == y.name && x.kind == y.kind && x.reg == y.reg &&
                x.position.x == y.position.x && x.position.y == y.position.y &&
                x.pins == y.pins && x.dead == y.dead &&
                x.scan.partition == y.scan.partition &&
                x.scan.section == y.scan.section &&
                x.scan.order == y.scan.order &&
                x.gating_group == y.gating_group)
        << where << ": cell " << i << " (" << x.name << " vs " << y.name
        << ")";
  }
  for (int i = 0; i < a.pin_count(); ++i) {
    const netlist::Pin& x = a.pin(PinId{i});
    const netlist::Pin& y = b.pin(PinId{i});
    ASSERT_TRUE(x.cell == y.cell && x.net == y.net && x.role == y.role &&
                x.bit == y.bit && x.offset.x == y.offset.x &&
                x.offset.y == y.offset.y && x.cap == y.cap)
        << where << ": pin " << i;
  }
  for (int i = 0; i < a.net_count(); ++i) {
    const netlist::Net& x = a.net(NetId{i});
    const netlist::Net& y = b.net(NetId{i});
    ASSERT_TRUE(x.driver == y.driver && x.sinks == y.sinks &&
                x.is_clock == y.is_clock)
        << where << ": net " << i;
  }
}

benchgen::DesignProfile profile_named(const std::string& name) {
  for (const benchgen::DesignProfile& p : benchgen::standard_profiles())
    if (p.name == name) return p;
  ADD_FAILURE() << "no profile " << name;
  return {};
}

class SpliceDifferential : public ::testing::TestWithParam<std::string> {
protected:
  const lib::Library library = lib::make_default_library();
};

TEST_P(SpliceDifferential, MergeMatchesReferenceOnEveryPlannedMerge) {
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile_named(GetParam()));
  Design& design = generated.design;
  Design reference = design;

  FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  options.timing.jobs = options.jobs;
  CompositionOptions composition = options.composition;
  composition.jobs = options.jobs;
  const CompositionPlan plan = plan_composition(
      design, sta::run_sta(design, options.timing), composition);

  int merges = 0;
  for (const Selection* selection : plan.merges()) {
    const std::optional<Mapping> mapping =
        map_candidate(design, plan.graph, selection->candidate);
    if (!mapping) continue;
    const geom::Point position =
        place_mbr(design, plan.graph, selection->candidate, *mapping);
    const std::string name = "mbr" + std::to_string(merges++);
    const CellId made = rewire_candidate(design, plan.graph,
                                         selection->candidate, *mapping,
                                         position, name);
    const CellId expected =
        reference_rewire(reference, plan.graph, selection->candidate,
                         *mapping, position, name);
    ASSERT_EQ(made, expected) << name;
  }
  ASSERT_GT(merges, 0);
  expect_same_netlist(design, reference, GetParam() + " merges");
}

INSTANTIATE_TEST_SUITE_P(Designs, SpliceDifferential,
                         ::testing::Values("D1", "D2", "D3", "D4", "D5"));

class SpliceSplitDifferential : public SpliceDifferential {};

TEST_P(SpliceSplitDifferential, SplitMatchesReferenceOnEveryEligibleMbr) {
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile_named(GetParam()));
  Design& design = generated.design;
  FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  run_composition_flow(design, options);
  Design reference = design;

  // Every multi-bit, movable, unordered register whose base-scan-style
  // family offers the piece width; 4+-bit banks alternate 1- and 2-bit
  // pieces so both widths are exercised.
  int splits = 0;
  for (CellId reg : design.registers()) {
    const netlist::Cell& cell = design.cell(reg);
    if (cell.reg->bits < 2 || cell.fixed || cell.size_only ||
        cell.scan.section >= 0)
      continue;
    const int piece_bits = cell.reg->bits >= 4 && splits % 2 == 1 ? 2 : 1;
    if (library
            .drive_variants(cell.reg->function, piece_bits,
                            lib::base_scan_style(cell.reg->function))
            .empty())
      continue;
    const std::vector<CellId> made = split_register(design, reg, piece_bits);
    const std::vector<CellId> expected =
        reference_split(reference, reg, piece_bits);
    ASSERT_EQ(made, expected) << design.cell(reg).name;
    ++splits;
  }
  ASSERT_GT(splits, 0);
  expect_same_netlist(design, reference, GetParam() + " splits");
}

INSTANTIATE_TEST_SUITE_P(Designs, SpliceSplitDifferential,
                         ::testing::Values("D1", "D4"));

}  // namespace
}  // namespace mbrc::mbr
