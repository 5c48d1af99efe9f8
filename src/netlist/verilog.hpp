// Structural Verilog writer.
//
// Emits the design as a flat gate-level module -- the interchange format
// every downstream EDA tool reads -- with one instance per live cell and
// one wire per connected net. Registers instantiate their library cell name
// with named port connections (D0..Dn-1, Q0.., CLK, RN, SN, EN, SI*, SO*,
// SE); combinational cells use A0..An-1/Y; ports become module ports.
//
// This writer is for hand-off and inspection; the round-trippable format
// (placement, scan attributes, designer constraints) is netlist/io.hpp.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"

namespace mbrc::netlist {

/// Writes `design` as structural Verilog to `os`.
void write_verilog(const Design& design, std::ostream& os,
                   const std::string& module_name = "mbrc_design");

}  // namespace mbrc::netlist
