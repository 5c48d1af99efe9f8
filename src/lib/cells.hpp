// Standard-cell library model.
//
// Registers use the linear delay model the paper's Sec. 4.1 describes for
// MBR mapping: delay = intrinsic + drive_resistance * load_capacitance.
// Multi-bit register (MBR) cells share clock/control circuitry, so their
// per-bit area and per-bit clock pin capacitance are lower than a single-bit
// register's -- that sharing is exactly what MBR composition exploits.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geom/point.hpp"

namespace mbrc::lib {

/// Functional features of a register cell. Registers can only be merged into
/// an MBR of the *same* functional signature (Sec. 2, functional
/// compatibility), and only if the library offers an MBR with it.
struct RegisterFunction {
  bool has_reset = false;
  bool has_set = false;
  bool has_enable = false;  // synchronous load-enable pin
  bool is_scan = false;     // scan-capable flop
  bool is_latch = false;    // level-sensitive latch instead of a flop

  friend constexpr bool operator==(const RegisterFunction&,
                                   const RegisterFunction&) = default;

  /// Stable small integer encoding (used as a hash/grouping key).
  constexpr unsigned encode() const {
    return (has_reset ? 1u : 0u) | (has_set ? 2u : 0u) |
           (has_enable ? 4u : 0u) | (is_scan ? 8u : 0u) |
           (is_latch ? 16u : 0u);
  }
};

/// How scan connectivity crosses an MBR (Sec. 2, scan compatibility).
enum class ScanStyle {
  kNone,          // non-scan register
  kInternalChain, // one SI/SO pair; bits chained inside the cell in order
  kPerBitPins,    // independent SI/SO per bit; chains may cross the cell
};

/// A register cell (single-bit or multi-bit).
struct RegisterCell {
  std::string name;
  int bits = 1;
  RegisterFunction function;
  ScanStyle scan_style = ScanStyle::kNone;

  double area = 0.0;              // um^2
  double width = 0.0;             // um
  double height = 0.0;            // um
  double clock_pin_cap = 0.0;     // fF, single shared clock pin
  double data_pin_cap = 0.0;      // fF per D pin
  double drive_resistance = 0.0;  // kOhm, Q-pin linear delay model
  double intrinsic_delay = 0.0;   // ns, clk->Q
  double setup_time = 0.0;        // ns at the D pin
  double hold_time = 0.0;         // ns at the D pin (min-delay check)
  double leakage = 0.0;           // nW

  std::vector<geom::Point> d_pin_offsets;  // per bit, relative to lower-left
  std::vector<geom::Point> q_pin_offsets;  // per bit
  geom::Point clock_pin_offset;

  double area_per_bit() const { return area / bits; }
  /// Power proxy of the whole cell for the multi-objective cost model:
  /// clock-pin cap (fF, dominates at-speed) plus leakage (nW). Both are
  /// order-1 in this library, so the sum is a commensurate scalar; the
  /// cost-model knobs absorb any unit conversion.
  double power_proxy() const { return clock_pin_cap + leakage; }
};

/// The scan style of initial registers and of debank pieces: the internal
/// chain for scan functions, none otherwise.
constexpr ScanStyle base_scan_style(const RegisterFunction& function) {
  return function.is_scan ? ScanStyle::kInternalChain : ScanStyle::kNone;
}

/// True when `a` and `b` belong to one drive-variant family (same function,
/// width and scan style), i.e. one can replace the other in place.
inline bool is_drive_variant(const RegisterCell& a, const RegisterCell& b) {
  return a.function == b.function && a.bits == b.bits &&
         a.scan_style == b.scan_style;
}

/// A combinational cell (the logic between registers in the STA substrate).
struct CombCell {
  std::string name;
  int fanin = 2;
  double area = 0.0;
  double width = 0.0;
  double height = 0.0;
  double input_pin_cap = 0.0;     // fF per input
  double drive_resistance = 0.0;  // kOhm
  double intrinsic_delay = 0.0;   // ns
};

/// A clock buffer used by the clock-tree estimator.
struct ClockBufferCell {
  std::string name;
  double area = 0.0;
  double input_pin_cap = 0.0;     // fF
  double drive_resistance = 0.0;  // kOhm
  double intrinsic_delay = 0.0;   // ns
  double max_load_cap = 0.0;      // fF the buffer may drive
};

}  // namespace mbrc::lib

template <>
struct std::hash<mbrc::lib::RegisterFunction> {
  std::size_t operator()(const mbrc::lib::RegisterFunction& f) const noexcept {
    return f.encode();
  }
};
