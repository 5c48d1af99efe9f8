// Strategic debanking -- the inverse move of composition, driven by timing.
//
// Composition trades clock-tree load for shared clock pins: every merge
// welds its members' launch edges together. When a bank ends up on the
// critical path, that weld is often the limiting constraint -- the bits of
// one MBR want *different* clock arrivals (one bit's D side is late, a
// sibling's Q side feeds a short path), but a shared clock pin can only
// realize one useful-skew offset for all of them. Splitting such a bank
// back into narrow pieces restores per-piece skew, sizing and placement
// freedom, at the price of the lost area/cap sharing.
//
// This pass selects the timing-critical banks worth that trade: MBRs whose
// worst constrained bit -- min over the bank's constrained D and Q pins --
// has slack below `slack_threshold`. One routine, split_register, does the
// structural work, so the invariants (per-bit D/Q connectivity, shared
// control nets, scan info) are maintained by exactly one piece of code. The
// flow's bank/debank loop (flow.cpp) then re-legalizes the pieces, offers
// them back to scoped recomposition, and keeps the result only if the
// combined cost (mbr/cost.hpp) improved.
#pragma once

#include <vector>

#include "netlist/design.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {

struct DebankOptions {
  /// Split banks whose worst constrained bit has less slack (ns) than this.
  /// 0.0 means "split failing banks only"; raise it to also break up
  /// near-critical banks.
  double slack_threshold = 0.0;
  /// Width of the pieces the split produces (must exist in the library for
  /// the bank's functional class; piece widths that do not divide the bank
  /// width leave the bank untouched).
  int piece_bits = 1;
  /// Never split banks narrower than this (must be > piece_bits).
  int min_bits = 2;
  /// At most this many banks are split per call, worst slack first. Keeps
  /// each loop iteration's perturbation small enough that the accept/revert
  /// decision in the flow stays meaningful.
  int max_banks_per_iteration = 8;
  /// Iteration cap for the flow's bank/debank loop (flow.cpp); the loop
  /// also stops as soon as an iteration fails to improve the combined cost.
  int max_iterations = 4;
  /// An iteration must improve the combined cost by more than this to be
  /// accepted; guards the monotone-cost invariant against float noise.
  double cost_epsilon = 1e-9;
};

struct DebankResult {
  int banks_split = 0;
  int pieces_created = 0;
  /// The narrow registers created by the splits, in split order.
  std::vector<netlist::CellId> pieces;
  /// The bank cells that were removed, in split order (the flow uses this
  /// to drop their useful-skew entries).
  std::vector<netlist::CellId> removed;
};

/// Splits the most timing-critical eligible MBRs of `design` into
/// `piece_bits`-wide pieces (worst constrained slack first, capped at
/// `max_banks_per_iteration`). Only multi-bit, movable, non-scan-ordered
/// registers whose class offers the piece width are considered. The pieces
/// overlap the original footprints: the caller must legalize them and
/// re-stitch touched scan chains afterwards. Deterministic: the selection
/// depends only on `design` and `timing`, never on thread schedule.
DebankResult debank_critical_registers(const DebankOptions& options,
                                       netlist::Design& design,
                                       const sta::TimingReport& timing);

/// Splits one register into `piece_bits`-wide pieces of the class's weakest
/// drive variant (splitting must not waste power; sizing re-selects drive
/// later), preserving per-bit D/Q connectivity, the shared clock/control
/// nets, scan info and the gating group. The original cell is removed; the
/// pieces are returned in bit order. The caller must have verified
/// eligibility: the library offers a non-per-bit-scan cell of the piece
/// width, `bits % piece_bits == 0`, and the register is not pinned by an
/// ordered scan section. Pieces overlap the original footprint and must be
/// legalized, and touched scan chains re-stitched, afterwards.
std::vector<netlist::CellId> split_register(netlist::Design& design,
                                            netlist::CellId cell_id,
                                            int piece_bits);

}  // namespace mbrc::mbr
