#include "mbr/debank.hpp"

#include <algorithm>

#include "mbr/rewire.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using netlist::CellId;

struct Critical {
  double slack = 0.0;
  CellId cell;
};

// The weakest cell of the class's base-scan-style family at `bits`, or
// nullptr: the cell every split piece becomes.
const lib::RegisterCell* piece_cell(const lib::Library& library,
                                    const lib::RegisterFunction& function,
                                    int bits) {
  const auto family =
      library.drive_variants(function, bits, lib::base_scan_style(function));
  return family.empty() ? nullptr : family.front();
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

  // Pieces are distributed over the original footprint (their summed width
  // slightly exceeds it -- sharing lost); the follow-up legalization
  // resolves the small overlaps with minimal displacement.
  const double pitch = std::max(piece->width, cell.reg->width / pieces);
  std::vector<SpliceTarget> targets;
  for (int p = 0; p < pieces; ++p)
    targets.push_back({piece,
                       {cell.position.x + p * pitch, cell.position.y},
                       cell.name + "_p" + std::to_string(p),
                       cell.scan});
  return splice_registers(design, {cell_id}, targets);
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
