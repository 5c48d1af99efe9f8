// Netlist surgery for MBR composition: replace a group of registers with one
// mapped MBR cell, preserving the D/Q connectivity bit by bit and sharing the
// clock/control nets, then re-stitch the scan chains the merge disturbed.
// The merge here and the debank split (mbr/debank.hpp) are both one
// splice_registers call.
#pragma once

#include <string>
#include <vector>

#include "mbr/mapping.hpp"

namespace mbrc::mbr {

/// One register a splice creates.
struct SpliceTarget {
  const lib::RegisterCell* cell = nullptr;
  geom::Point position;  // lower-left corner, pre-legalization
  std::string name;
  netlist::ScanInfo scan;
};

/// The register surgery behind both merge and split: replaces `sources` by
/// `targets`, in this order --
///   - capture the sources' D/Q nets, bit by bit in `sources` order, and the
///     clock/reset/set/enable/scan-enable nets and gating group of the
///     first source (every source must share them),
///   - remove (tombstone) the sources,
///   - per target: add the register, set its scan info and gating group,
///     connect the clock, then each valid control net, then bit by bit the
///     D and Q nets dealt from the concatenated source bits.
/// The last target's spare bits stay unconnected (incomplete MBR); scan
/// pins are left for restitch_scan_chains(). Returns the new cell ids in
/// target order.
std::vector<netlist::CellId> splice_registers(
    netlist::Design& design, const std::vector<netlist::CellId>& sources,
    const std::vector<SpliceTarget>& targets);

/// Replaces the candidate's member registers with a new MBR instance of
/// `mapping.cell` at `position` (lower-left corner, pre-legalization):
///   - bit i of member k drives/loads the nets its D/Q pins were on,
///   - clock and control pins connect to the shared nets (identical across
///     members by functional compatibility),
///   - scan pins are left unconnected; call restitch_scan_chains() after all
///     merges to rebuild the chains,
///   - members are removed (tombstoned).
/// For incomplete MBRs the extra D/Q pin pairs stay unconnected (tied off).
/// Returns the new cell id.
netlist::CellId rewire_candidate(netlist::Design& design,
                                 const CompatibilityGraph& graph,
                                 const Candidate& candidate,
                                 const Mapping& mapping, geom::Point position,
                                 const std::string& name);

struct RestitchStats {
  int chains = 0;     // scan partitions re-stitched
  int links = 0;      // SO -> SI nets created
  int registers = 0;  // scan registers on the chains
};

/// Rebuilds every scan chain: per partition, ordered sections first (in
/// section/order sequence), then the free registers in a nearest-neighbor
/// geometric order; consecutive registers are linked SO -> SI with fresh
/// nets. Existing SI/SO connections are dropped first. Registers whose MBR
/// has per-bit scan pins are chained through each bit in turn.
RestitchStats restitch_scan_chains(netlist::Design& design);

}  // namespace mbrc::mbr
