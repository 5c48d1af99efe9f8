#include "mbr/debank.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

struct Critical {
  double slack = 0.0;
  CellId cell;
};

// The weakest (max drive resistance) non-per-bit-scan cell of the class at
// `bits`, or nullptr: the cell every split piece becomes.
const lib::RegisterCell* piece_cell(const lib::Library& library,
                                    const lib::RegisterFunction& function,
                                    int bits) {
  const lib::RegisterCell* best = nullptr;
  for (const lib::RegisterCell* cell : library.cells_for(function, bits)) {
    if (cell->scan_style == lib::ScanStyle::kPerBitPins) continue;
    if (best == nullptr || cell->drive_resistance > best->drive_resistance)
      best = cell;
  }
  return best;
}

bool eligible(const netlist::Design& design, CellId cell_id,
              const DebankOptions& options) {
  const netlist::Cell& cell = design.cell(cell_id);
  if (cell.dead || cell.kind != netlist::CellKind::kRegister) return false;
  if (cell.fixed || cell.size_only) return false;
  const int bits = cell.reg->bits;
  if (bits < std::max(2, options.min_bits)) return false;
  if (bits % options.piece_bits != 0) return false;
  // Ordered scan sections pin the bank's chain position; keep those intact
  // (splitting would need section renumbering).
  if (cell.scan.section >= 0) return false;
  return piece_cell(design.library(), cell.reg->function,
                    options.piece_bits) != nullptr;
}

}  // namespace

std::vector<CellId> split_register(netlist::Design& design, CellId cell_id,
                                   int piece_bits) {
  const netlist::Cell& cell = design.cell(cell_id);
  const lib::RegisterCell* piece =
      piece_cell(design.library(), cell.reg->function, piece_bits);
  MBRC_ASSERT_MSG(piece != nullptr && cell.reg->bits % piece_bits == 0,
                  "split_register: caller must check eligibility");
  const int pieces = cell.reg->bits / piece_bits;

  // Record connectivity before removing the original.
  struct BitNets {
    NetId d, q;
  };
  std::vector<BitNets> bits(cell.reg->bits);
  for (int b = 0; b < cell.reg->bits; ++b) {
    const PinId d = design.register_d_pin(cell_id, b);
    const PinId q = design.register_q_pin(cell_id, b);
    bits[b] = {design.pin(d).net, design.pin(q).net};
  }
  const NetId clock = design.register_clock_net(cell_id);
  const auto control = [&](PinRole role) {
    const PinId pin = design.register_control_pin(cell_id, role);
    return pin.valid() ? design.pin(pin).net : NetId{};
  };
  const NetId reset = control(PinRole::kReset);
  const NetId set = control(PinRole::kSet);
  const NetId enable = control(PinRole::kEnable);
  const NetId scan_enable = control(PinRole::kScanEnable);
  const geom::Point origin = cell.position;
  const std::string base_name = cell.name;
  const netlist::ScanInfo scan = cell.scan;
  const int gating = cell.gating_group;
  const double original_width = cell.reg->width;

  design.remove_cell(cell_id);

  std::vector<CellId> created;
  for (int p = 0; p < pieces; ++p) {
    // Pieces are distributed over the original footprint (their summed
    // width slightly exceeds it -- sharing lost); the follow-up
    // legalization resolves the small overlaps with minimal displacement.
    const double pitch = std::max(piece->width, original_width / pieces);
    const geom::Point position{origin.x + p * pitch, origin.y};
    const CellId new_cell = design.add_register(
        base_name + "_p" + std::to_string(p), piece, position);
    netlist::Cell& made = design.cell(new_cell);
    made.scan = scan;
    made.gating_group = gating;

    if (clock.valid())
      design.connect(design.register_clock_pin(new_cell), clock);
    const auto connect_control = [&](PinRole role, NetId net) {
      if (!net.valid()) return;
      const PinId pin = design.register_control_pin(new_cell, role);
      MBRC_ASSERT(pin.valid());
      design.connect(pin, net);
    };
    connect_control(PinRole::kReset, reset);
    connect_control(PinRole::kSet, set);
    connect_control(PinRole::kEnable, enable);
    connect_control(PinRole::kScanEnable, scan_enable);

    for (int b = 0; b < piece_bits; ++b) {
      const BitNets& nets = bits[p * piece_bits + b];
      if (nets.d.valid())
        design.connect(design.register_d_pin(new_cell, b), nets.d);
      if (nets.q.valid())
        design.connect(design.register_q_pin(new_cell, b), nets.q);
    }
    created.push_back(new_cell);
  }
  return created;
}

DebankResult debank_critical_registers(const DebankOptions& options,
                                       netlist::Design& design,
                                       const sta::TimingReport& timing) {
  MBRC_ASSERT(options.piece_bits >= 1 &&
              options.piece_bits < std::max(2, options.min_bits));
  obs::Span span("flow.debank.select");
  DebankResult result;

  std::vector<Critical> critical;
  for (CellId cell_id : design.registers()) {
    if (!eligible(design, cell_id, options)) continue;
    // Worst constrained bit of the bank: register_d_slack/register_q_slack
    // minimize over the constrained pins of each side, and kNoRequired is
    // +infinity, so an unconstrained side drops out of the min on its own.
    const double slack = std::min(timing.register_d_slack(design, cell_id),
                                  timing.register_q_slack(design, cell_id));
    if (slack == sta::kNoRequired) continue;  // fully unconstrained
    if (slack >= options.slack_threshold) continue;
    critical.push_back({slack, cell_id});
  }

  // Worst first; ties broken by cell id so the selection is a pure function
  // of (design, timing) -- the flow's jobs-invariance contract.
  std::sort(critical.begin(), critical.end(),
            [](const Critical& a, const Critical& b) {
              if (a.slack != b.slack) return a.slack < b.slack;
              return a.cell < b.cell;
            });
  if (options.max_banks_per_iteration >= 0 &&
      critical.size() >
          static_cast<std::size_t>(options.max_banks_per_iteration))
    critical.resize(static_cast<std::size_t>(options.max_banks_per_iteration));

  for (const Critical& c : critical) {
    const std::vector<CellId> pieces =
        split_register(design, c.cell, options.piece_bits);
    result.pieces.insert(result.pieces.end(), pieces.begin(), pieces.end());
    result.removed.push_back(c.cell);
    ++result.banks_split;
  }
  result.pieces_created = static_cast<int>(result.pieces.size());

  static obs::Counter& c_banks = obs::counter("flow.debank.banks_split");
  static obs::Counter& c_pieces = obs::counter("flow.debank.pieces_created");
  c_banks.add(result.banks_split);
  c_pieces.add(result.pieces_created);
  return result;
}

}  // namespace mbrc::mbr
