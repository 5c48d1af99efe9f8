// Library container and queries used by MBR composition:
//   - which MBR bit-widths exist for a functional class (valid clique sizes),
//   - the best cell for a given width / drive-resistance / scan requirement
//     (Sec. 4.1 mapping).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lib/cells.hpp"

namespace mbrc::lib {

/// What the mapper needs from a library MBR cell (Sec. 4.1): at least the
/// requested drive, then minimal clock-pin cap, with external-scan variants
/// penalized unless explicitly required.
struct MappingRequest {
  RegisterFunction function;
  int bits = 1;
  double min_drive_resistance = 0.0;  // strongest (smallest R) replaced register
  bool needs_per_bit_scan = false;    // ordered chains crossing the MBR
};

class Library {
public:
  /// Adds a register cell; retains insertion order. Returns its index.
  int add_register(RegisterCell cell);
  int add_comb(CombCell cell);
  int add_clock_buffer(ClockBufferCell cell);

  const std::vector<RegisterCell>& registers() const { return registers_; }
  const std::vector<CombCell>& combs() const { return combs_; }
  const std::vector<ClockBufferCell>& clock_buffers() const { return buffers_; }

  const RegisterCell* register_by_name(const std::string& name) const;
  const CombCell* comb_by_name(const std::string& name) const;

  /// Distinct MBR bit-widths available for `function`, ascending. These are
  /// the valid clique sizes during candidate enumeration (Sec. 3). Kept
  /// up to date by add_register, so the lookup allocates nothing; empty
  /// when the library has no cell of `function`.
  const std::vector<int>& available_widths(
      const RegisterFunction& function) const;

  /// Cells of `function` with exactly `bits` bits, in insertion order.
  std::vector<const RegisterCell*> cells_for(const RegisterFunction& function,
                                             int bits) const;

  /// The drive-variant family of (function, bits, style) -- the cells a
  /// register may be swapped between in place -- weakest first: drive
  /// resistance descending, then name ascending. Empty when absent.
  std::vector<const RegisterCell*> drive_variants(
      const RegisterFunction& function, int bits, ScanStyle style) const;
  /// The family of `cell` (itself included).
  std::vector<const RegisterCell*> drive_variants(
      const RegisterCell& cell) const {
    return drive_variants(cell.function, cell.bits, cell.scan_style);
  }

  /// Sec. 4.1 mapping: choose the library cell for a composed MBR.
  /// Preference order:
  ///   1. drive resistance <= request.min_drive_resistance (no timing
  ///      degradation); if none qualifies, the strongest available,
  ///   2. scan style compatible (per-bit pins when needs_per_bit_scan;
  ///      external-scan cells are otherwise penalized),
  ///   3. smallest clock pin capacitance,
  ///   4. smallest area.
  /// Returns nullptr when the library has no cell of that function/width.
  const RegisterCell* map_register(const MappingRequest& request) const;

  /// True when `function` has any multi-bit cell, i.e. composition can do
  /// something for registers of this class.
  bool has_multibit(const RegisterFunction& function) const;

  /// The minimum-area cell of `function` at exactly `bits` bits (ties by
  /// insertion order), or nullptr when the class has no such width. This is
  /// the enumeration-time stand-in for the cell the mapper will pick: the
  /// incomplete-MBR area rule and the multi-objective cost model both price
  /// a candidate with it before mapping runs. A lookup in the per-width
  /// index add_register maintains; no scan of the library.
  const RegisterCell* cheapest_cell(const RegisterFunction& function,
                                    int bits) const;

private:
  std::vector<RegisterCell> registers_;
  std::vector<CombCell> combs_;
  std::vector<ClockBufferCell> buffers_;
  std::unordered_map<std::string, int> register_index_;
  std::unordered_map<std::string, int> comb_index_;
  /// Per-function register index, keyed by RegisterFunction::encode().
  /// Indices into registers_ (a growing vector, so no pointers).
  struct FunctionCells {
    std::vector<int> widths;               // distinct, ascending
    std::vector<std::vector<int>> cells;   // per width: insertion order
    std::vector<int> cheapest;             // per width: first minimum area
    /// Per width, per ScanStyle: the drive variants, weakest first.
    std::vector<std::array<std::vector<int>, 3>> variants;
  };
  std::unordered_map<unsigned, FunctionCells> by_function_;

  /// Position of `bits` in the class's widths, or nullptr/-1 when absent.
  std::pair<const FunctionCells*, int> find_width(
      const RegisterFunction& function, int bits) const;
  /// The cells behind a list of registers_ indices.
  std::vector<const RegisterCell*> pointers(
      const std::vector<int>& cells) const;
};

/// Parameters for the built-in parametric library (a 28 nm-flavored model).
struct DefaultLibraryOptions {
  /// Bit-widths generated for every register functional class.
  std::vector<int> widths = {1, 2, 4, 8};
  /// Extra widths (e.g. 3) useful for exercising odd-width libraries.
  bool include_width_3 = false;
  /// Drive variants per width (X1, X2, X4...) as resistance divisors.
  std::vector<double> drive_strengths = {1.0, 2.0, 4.0};
  /// Per-bit area of the 1-bit X1 register (um^2).
  double unit_area = 4.8;
  /// Area sharing: area(b) = b * unit_area * (1 - sharing * (1 - 1/b)).
  /// Published MBFF libraries report ~20-25% per-bit area savings at 4 bits
  /// and ~25-30% at 8 bits; 0.26 reproduces that band.
  double area_sharing = 0.26;
  /// Clock pin cap of the 1-bit X1 register (fF).
  double unit_clock_cap = 0.9;
  /// Clock cap model: cap(b) = unit * (share_base + share_slope * b).
  double clock_share_base = 0.55;
  double clock_share_slope = 0.17;
  /// Register functional classes to emit.
  std::vector<RegisterFunction> functions = {
      {},                                       // plain DFF
      {.has_reset = true},                      // DFF + async reset
      {.has_reset = true, .has_enable = true},  // reset + enable
      {.is_scan = true},                        // scan DFF
      {.has_reset = true, .is_scan = true},     // scan + reset
  };
  /// Also emit per-bit-scan variants of scan MBRs.
  bool per_bit_scan_variants = true;
};

/// Builds the parametric library described by `options`. Deterministic.
Library make_default_library(const DefaultLibraryOptions& options = {});

}  // namespace mbrc::lib
