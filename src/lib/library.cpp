#include "lib/library.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mbrc::lib {

int Library::add_register(RegisterCell cell) {
  MBRC_ASSERT_MSG(cell.bits >= 1, "register must have at least one bit");
  MBRC_ASSERT_MSG(static_cast<int>(cell.d_pin_offsets.size()) == cell.bits &&
                      static_cast<int>(cell.q_pin_offsets.size()) == cell.bits,
                  "pin offsets must match bit count: " + cell.name);
  MBRC_ASSERT_MSG(!register_index_.contains(cell.name),
                  "duplicate register cell name: " + cell.name);
  const int index = static_cast<int>(registers_.size());
  register_index_.emplace(cell.name, index);
  FunctionCells& fc = by_function_[cell.function.encode()];
  const auto at = std::lower_bound(fc.widths.begin(), fc.widths.end(),
                                   cell.bits);
  const auto slot = at - fc.widths.begin();
  if (at == fc.widths.end() || *at != cell.bits) {
    fc.widths.insert(at, cell.bits);
    fc.cells.insert(fc.cells.begin() + slot, std::vector<int>{});
    fc.cheapest.insert(fc.cheapest.begin() + slot, index);
    fc.variants.insert(fc.variants.begin() + slot,
                       std::array<std::vector<int>, 3>{});
  } else if (cell.area < registers_[fc.cheapest[slot]].area) {
    fc.cheapest[slot] = index;  // strict: ties keep the first inserted
  }
  fc.cells[slot].push_back(index);
  std::vector<int>& family =
      fc.variants[slot][static_cast<std::size_t>(cell.scan_style)];
  const auto weaker = [&](const RegisterCell& a, int b) {
    const RegisterCell& other = registers_[static_cast<std::size_t>(b)];
    if (a.drive_resistance != other.drive_resistance)
      return a.drive_resistance > other.drive_resistance;
    return a.name < other.name;
  };
  family.insert(std::upper_bound(family.begin(), family.end(), cell, weaker),
                index);
  registers_.push_back(std::move(cell));
  return index;
}

int Library::add_comb(CombCell cell) {
  MBRC_ASSERT_MSG(!comb_index_.contains(cell.name),
                  "duplicate comb cell name: " + cell.name);
  const int index = static_cast<int>(combs_.size());
  comb_index_.emplace(cell.name, index);
  combs_.push_back(std::move(cell));
  return index;
}

int Library::add_clock_buffer(ClockBufferCell cell) {
  buffers_.push_back(std::move(cell));
  return static_cast<int>(buffers_.size()) - 1;
}

const RegisterCell* Library::register_by_name(const std::string& name) const {
  const auto it = register_index_.find(name);
  return it == register_index_.end() ? nullptr : &registers_[it->second];
}

const CombCell* Library::comb_by_name(const std::string& name) const {
  const auto it = comb_index_.find(name);
  return it == comb_index_.end() ? nullptr : &combs_[it->second];
}

const std::vector<int>& Library::available_widths(
    const RegisterFunction& function) const {
  static const std::vector<int> kNone;
  const auto it = by_function_.find(function.encode());
  return it == by_function_.end() ? kNone : it->second.widths;
}

std::pair<const Library::FunctionCells*, int> Library::find_width(
    const RegisterFunction& function, int bits) const {
  const auto it = by_function_.find(function.encode());
  if (it == by_function_.end()) return {nullptr, -1};
  const std::vector<int>& widths = it->second.widths;
  const auto at = std::lower_bound(widths.begin(), widths.end(), bits);
  if (at == widths.end() || *at != bits) return {nullptr, -1};
  return {&it->second, static_cast<int>(at - widths.begin())};
}

std::vector<const RegisterCell*> Library::pointers(
    const std::vector<int>& cells) const {
  std::vector<const RegisterCell*> out;
  out.reserve(cells.size());
  for (int index : cells)
    out.push_back(&registers_[static_cast<std::size_t>(index)]);
  return out;
}

std::vector<const RegisterCell*> Library::cells_for(
    const RegisterFunction& function, int bits) const {
  const auto [fc, slot] = find_width(function, bits);
  if (fc == nullptr) return {};
  return pointers(fc->cells[static_cast<std::size_t>(slot)]);
}

std::vector<const RegisterCell*> Library::drive_variants(
    const RegisterFunction& function, int bits, ScanStyle style) const {
  const auto [fc, slot] = find_width(function, bits);
  if (fc == nullptr) return {};
  return pointers(fc->variants[static_cast<std::size_t>(slot)]
                              [static_cast<std::size_t>(style)]);
}

const RegisterCell* Library::map_register(const MappingRequest& request) const {
  const auto candidates = cells_for(request.function, request.bits);
  if (candidates.empty()) return nullptr;

  // Scan feasibility filter: ordered chains crossing the MBR need per-bit
  // scan pins; anything else can use any style of the same function.
  std::vector<const RegisterCell*> usable;
  for (const RegisterCell* cell : candidates) {
    if (request.needs_per_bit_scan && request.function.is_scan &&
        cell->bits > 1 && cell->scan_style != ScanStyle::kPerBitPins)
      continue;
    usable.push_back(cell);
  }
  if (usable.empty()) return nullptr;

  // Prefer cells that do not degrade timing: drive resistance at most the
  // strongest replaced register's. Fall back to the strongest available.
  std::vector<const RegisterCell*> strong;
  for (const RegisterCell* cell : usable)
    if (cell->drive_resistance <= request.min_drive_resistance + 1e-12)
      strong.push_back(cell);
  if (strong.empty()) {
    const auto strongest = std::min_element(
        usable.begin(), usable.end(),
        [](const RegisterCell* a, const RegisterCell* b) {
          // mbrc-lint: allow(R2, min_element is order-stable -- first minimum over usable which preserves the deterministic registration order)
          return a->drive_resistance < b->drive_resistance;
        });
    strong.push_back(*strongest);
  }

  // Among the qualifying cells: penalize external (per-bit) scan variants
  // unless they were required (Sec. 4.1 -- the external chain costs routing),
  // then minimize clock pin cap, then area.
  const auto rank = [&](const RegisterCell* cell) {
    const bool penalized = !request.needs_per_bit_scan &&
                           cell->scan_style == ScanStyle::kPerBitPins &&
                           cell->bits > 1;
    return std::tuple(penalized ? 1 : 0, cell->clock_pin_cap, cell->area);
  };
  return *std::min_element(strong.begin(), strong.end(),
                           [&](const RegisterCell* a, const RegisterCell* b) {
                             return rank(a) < rank(b);
                           });
}

bool Library::has_multibit(const RegisterFunction& function) const {
  const std::vector<int>& widths = available_widths(function);
  return !widths.empty() && widths.back() > 1;
}

const RegisterCell* Library::cheapest_cell(const RegisterFunction& function,
                                           int bits) const {
  const auto [fc, slot] = find_width(function, bits);
  if (fc == nullptr) return nullptr;
  return &registers_[static_cast<std::size_t>(
      fc->cheapest[static_cast<std::size_t>(slot)])];
}

namespace {

std::string function_suffix(const RegisterFunction& f) {
  std::string s;
  if (f.has_reset) s += "R";
  if (f.has_set) s += "S";
  if (f.has_enable) s += "E";
  if (f.is_scan) s += "Q";  // scan ("SDFF" style)
  if (f.is_latch) s += "L";
  return s.empty() ? "P" : s;  // P = plain
}

RegisterCell make_register(const DefaultLibraryOptions& opt,
                           const RegisterFunction& function, int bits,
                           double strength, ScanStyle style) {
  RegisterCell cell;
  cell.bits = bits;
  cell.function = function;
  cell.scan_style = style;

  // Area: per-bit sharing discount for multi-bit cells, plus control-pin
  // overhead for reset/set/enable/scan and a size premium per drive step.
  const double sharing = 1.0 - opt.area_sharing * (1.0 - 1.0 / bits);
  double area = bits * opt.unit_area * sharing;
  double overhead = 1.0;
  if (function.has_reset) overhead += 0.06;
  if (function.has_set) overhead += 0.06;
  if (function.has_enable) overhead += 0.10;
  if (function.is_scan) overhead += 0.12;
  if (style == ScanStyle::kPerBitPins && bits > 1) overhead += 0.05;
  area *= overhead;
  area *= 0.85 + 0.15 * strength;  // stronger drive => larger output stage
  cell.area = area;

  cell.height = 1.8;  // um, single-row cell
  cell.width = area / cell.height;

  // Clock pin: one shared pin; cap grows sub-linearly with bits and mildly
  // with drive strength (bigger internal clock inverters), so downsizing an
  // MBR after useful skew also trims clock capacitance (paper Sec. 5).
  cell.clock_pin_cap = opt.unit_clock_cap *
                       (opt.clock_share_base + opt.clock_share_slope * bits) *
                       (0.92 + 0.08 * strength);
  cell.data_pin_cap = 0.55;                     // fF per D pin
  cell.drive_resistance = 2.4 / strength;       // kOhm
  cell.intrinsic_delay = 0.085 + 0.004 * bits;  // ns clk->Q
  cell.setup_time = 0.045;                      // ns
  cell.hold_time = 0.025;                       // ns
  cell.leakage = area * 1.35;                   // nW, proportional to area

  // Pin geometry: D pins up the left edge, Q pins up the right edge, clock
  // at the bottom center. For a single row cell the bits are spread in x.
  for (int b = 0; b < bits; ++b) {
    const double x = cell.width * (b + 0.25) / bits;
    cell.d_pin_offsets.push_back({x, 0.3 * cell.height});
    cell.q_pin_offsets.push_back(
        {cell.width * (b + 0.75) / bits, 0.7 * cell.height});
  }
  cell.clock_pin_offset = {cell.width / 2, 0.0};

  // Name: DFF<func>_B<bits>_X<strength>[_PBS]
  std::string name = function.is_latch ? "LAT" : "DFF";
  name += function_suffix(function);
  name += "_B" + std::to_string(bits);
  name += "_X" + std::to_string(static_cast<int>(strength));
  if (style == ScanStyle::kPerBitPins && bits > 1) name += "_PBS";
  cell.name = std::move(name);
  return cell;
}

}  // namespace

Library make_default_library(const DefaultLibraryOptions& options) {
  Library library;

  std::vector<int> widths = options.widths;
  if (options.include_width_3 &&
      std::find(widths.begin(), widths.end(), 3) == widths.end())
    widths.push_back(3);
  std::sort(widths.begin(), widths.end());

  for (const RegisterFunction& function : options.functions) {
    for (int bits : widths) {
      for (double strength : options.drive_strengths) {
        library.add_register(make_register(options, function, bits, strength,
                                           base_scan_style(function)));
        if (function.is_scan && options.per_bit_scan_variants && bits > 1)
          library.add_register(make_register(options, function, bits, strength,
                                             ScanStyle::kPerBitPins));
      }
    }
  }

  // A small combinational family for the STA substrate.
  auto add_comb = [&](std::string name, int fanin, double area, double cap,
                      double res, double delay) {
    CombCell cell;
    cell.name = std::move(name);
    cell.fanin = fanin;
    cell.area = area;
    cell.height = 1.8;
    cell.width = area / cell.height;
    cell.input_pin_cap = cap;
    cell.drive_resistance = res;
    cell.intrinsic_delay = delay;
    library.add_comb(std::move(cell));
  };
  add_comb("INV_X1", 1, 0.9, 0.45, 2.8, 0.012);
  add_comb("INV_X4", 1, 1.7, 1.45, 0.8, 0.014);
  add_comb("NAND2_X1", 2, 1.3, 0.50, 3.0, 0.018);
  add_comb("NOR2_X1", 2, 1.3, 0.52, 3.4, 0.020);
  add_comb("AOI22_X1", 4, 2.2, 0.55, 3.8, 0.028);
  add_comb("XOR2_X1", 2, 2.6, 0.80, 3.6, 0.034);
  add_comb("BUF_X2", 1, 1.4, 0.50, 1.5, 0.016);

  // Clock buffers for the CTS estimator.
  auto add_buffer = [&](std::string name, double area, double cap, double res,
                        double delay, double max_load) {
    library.add_clock_buffer({std::move(name), area, cap, res, delay, max_load});
  };
  add_buffer("CLKBUF_X2", 2.1, 0.8, 1.4, 0.022, 45.0);
  add_buffer("CLKBUF_X4", 3.4, 1.5, 0.7, 0.024, 90.0);
  add_buffer("CLKBUF_X8", 5.9, 2.9, 0.35, 0.027, 180.0);

  return library;
}

}  // namespace mbrc::lib
