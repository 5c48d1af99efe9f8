#include "sta/timing_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/assert.hpp"

namespace mbrc::sta {

namespace {

using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;
using netlist::Pin;
using netlist::PinId;
using netlist::PinRole;

// kOhm * fF = ps; delays are kept in ns.
constexpr double kNsPerKohmFf = 1e-3;

// Pins per parallel_for task in the full-build passes: liveness, the CSR
// count, fill and transpose, the launch and endpoint seeds, and the level
// sweeps.
constexpr std::size_t kLevelGrain = 256;

// A level with more dirty frontier words than kSerialWords (2048 positions)
// is swept on the pool in chunks of kChunkWords words, one per task; a
// smaller one (every level of a service edit or a sizing swap) is one chunk
// on the calling thread.
constexpr std::size_t kSerialWords = 32;
constexpr std::size_t kChunkWords = 8;

// Pin ranges of the parallel CSR transpose (see build_edges); fixed, so the
// work split does not depend on `jobs`.
constexpr std::size_t kTransposeParts = 64;

// Registers per task when a skew diff refreshes register seeds.
constexpr std::size_t kSeedGrain = 64;

// The bits of a 64-bit word at global bit indices [first, last], for the
// word whose bit 0 has global index `base`.
std::uint64_t range_mask(std::size_t base, std::size_t first,
                         std::size_t last) {
  const std::size_t lo = first > base ? first - base : 0;
  const std::size_t hi = std::min<std::size_t>(last - base, 63);
  return (~std::uint64_t{0} >> (63 - hi)) & (~std::uint64_t{0} << lo);
}

bool is_launch_role(PinRole role) {
  return role == PinRole::kQ || role == PinRole::kScanOut;
}
bool is_endpoint_role(PinRole role) {
  return role == PinRole::kD || role == PinRole::kScanIn;
}

}  // namespace

TimingEngine::TimingEngine(const netlist::Design& design,
                           const TimingOptions& options)
    : design_(design), options_(options) {}

double TimingEngine::register_skew(CellId cell) const {
  const auto it = current_skew_.find(cell);
  return it == current_skew_.end() ? 0.0 : it->second;
}

double TimingEngine::fold_load(PinId driver) {
  const Pin& p = design_.pin(driver);
  if (!p.net.valid()) return 0.0;
  const netlist::Net& net = design_.net(p.net);
  // Design::net_hpwl's box, grown pin by pin in the same order; a pin owns
  // an edge when it moved it, so an edge's owner is its first extreme pin.
  // The owners live in locals until the end: a store into box_owner_ per
  // pin would force the pin and cell reads behind it to be reloaded.
  geom::Rect box = geom::Rect::empty();
  std::array<std::int32_t, 4> owner{-1, -1, -1, -1};
  int pins = 0;
  const auto grow = [&](PinId pin) {
    const geom::Rect grown = box.expand(design_.pin_position(pin));
    if (grown.xlo != box.xlo) owner[0] = pin.index;
    if (grown.ylo != box.ylo) owner[1] = pin.index;
    if (grown.xhi != box.xhi) owner[2] = pin.index;
    if (grown.yhi != box.yhi) owner[3] = pin.index;
    box = grown;
    ++pins;
  };
  grow(driver);
  for (PinId s : net.sinks) grow(s);
  box_owner_[p.net.index] = owner;
  const double hpwl = pins >= 2 ? box.half_perimeter() : 0.0;
  double load = hpwl * options_.wire_cap_per_um;
  for (PinId s : net.sinks) load += design_.pin(s).cap;
  net_load_[p.net.index] = load;
  return load;
}

double TimingEngine::cached_load(PinId driver) const {
  const Pin& p = design_.pin(driver);
  return p.net.valid() ? net_load_[p.net.index] : 0.0;
}

double TimingEngine::wire_delay(PinId driver, PinId sink) const {
  const double len = geom::manhattan(design_.pin_position(driver),
                                     design_.pin_position(sink));
  const double r = options_.wire_res_per_um * len;
  const double c = options_.wire_cap_per_um * len;
  return r * (c / 2 + design_.pin(sink).cap) * kNsPerKohmFf;
}

double TimingEngine::cell_arc_delay(PinId out) const {
  const Pin& p = design_.pin(out);
  const netlist::Cell& cell = design_.cell(p.cell);
  double intrinsic = 0.0;
  double resistance = 0.0;
  switch (cell.kind) {
    case CellKind::kComb:
      intrinsic = cell.comb->intrinsic_delay;
      resistance = cell.comb->drive_resistance;
      break;
    case CellKind::kClockBuffer:
      intrinsic = cell.buf->intrinsic_delay;
      resistance = cell.buf->drive_resistance;
      break;
    default:
      return 0.0;
  }
  return intrinsic + resistance * cached_load(out) * kNsPerKohmFf;
}

// The register timing rules, shared by the full build and the repairs.

double TimingEngine::launch_seed(PinId q_pin) const {
  const Pin& p = design_.pin(q_pin);
  const netlist::Cell& cell = design_.cell(p.cell);
  const double clk_to_q =
      cell.reg->intrinsic_delay +
      cell.reg->drive_resistance * cached_load(q_pin) * kNsPerKohmFf;
  return register_skew(p.cell) + clk_to_q;
}

double TimingEngine::setup_required(CellId reg) const {
  return options_.clock_period + register_skew(reg) -
         design_.cell(reg).reg->setup_time;
}

double TimingEngine::hold_required(CellId reg) const {
  return register_skew(reg) + design_.cell(reg).reg->hold_time;
}

// Max/min arrival at `pin`: its seed folded with every predecessor's
// arrival plus the edge delay.
std::pair<double, double> TimingEngine::gather_arrival(std::int32_t pin) const {
  const auto& arrival = report_.arrival;
  const auto& arrival_min = report_.arrival_min;
  double a = seed_arrival_[pin];
  double a_min = a == kNoArrival ? kNoRequired : a;
  for (int e = pred_offset_[pin]; e < pred_offset_[pin + 1]; ++e) {
    const double pa = arrival[pred_to_[e]];
    if (pa != kNoArrival) a = std::max(a, pa + pred_delay_[e]);
    const double pa_min = arrival_min[pred_to_[e]];
    if (pa_min != kNoRequired) a_min = std::min(a_min, pa_min + pred_delay_[e]);
  }
  return {a, a_min};
}

// Setup (min) and hold (max) required times at `pin`: its seeds folded with
// every successor's requirement minus the edge delay.
std::pair<double, double> TimingEngine::gather_required(
    std::int32_t pin) const {
  const auto& required = report_.required;
  const auto& req_min = report_.required_min;
  double r = seed_required_[pin];
  double r_min = seed_required_min_[pin];
  for (int e = succ_offset_[pin]; e < succ_offset_[pin + 1]; ++e) {
    const std::int32_t succ = succ_to_[e];
    if (required[succ] != kNoRequired)
      r = std::min(r, required[succ] - succ_delay_[e]);
    if (req_min[succ] != kNoArrival)
      r_min = std::max(r_min, req_min[succ] - succ_delay_[e]);
  }
  return {r, r_min};
}

// Builds the successor CSR, its transpose, and the cross-links between the
// two views. Only live pins contribute edges. Edge enumeration mirrors
// run_sta's for_each_successor: an output pin's successors are its net's
// sinks (wire arcs, skipping clock nets); a comb/buffer input's successors
// are its cell's outputs (cell arcs). A cell arc's delay depends only on its
// output pin, so it is evaluated once per output rather than once per
// input. The count and fill passes fan out over pins: each pin writes its
// own count slot and, after the prefix sum, its own CSR range.
void TimingEngine::build_edges(const std::vector<std::uint8_t>& live) {
  const int n = design_.pin_count();
  runtime::ThreadPool* pool =
      options_.jobs > 1 ? &runtime::ThreadPool::global() : nullptr;

  const auto for_each_successor = [&](PinId pin_id, auto&& fn) {
    const Pin& p = design_.pin(pin_id);
    if (p.is_output) {
      if (!p.net.valid() || design_.net(p.net).is_clock) return;
      for (PinId s : design_.net(p.net).sinks) fn(s);
      return;
    }
    const netlist::Cell& cell = design_.cell(p.cell);
    switch (cell.kind) {
      case CellKind::kComb:
        if (p.role == PinRole::kCombIn) {
          for (PinId out : cell.pins)
            if (design_.pin(out).role == PinRole::kCombOut) fn(out);
        }
        break;
      case CellKind::kClockBuffer:
        if (p.role == PinRole::kBufIn) {
          for (PinId out : cell.pins)
            if (design_.pin(out).role == PinRole::kBufOut) fn(out);
        }
        break;
      default:
        break;  // register inputs and ports are endpoints: no data arcs out
    }
  };

  // Count pass, plus the cell-arc delay of every comb/buffer output (the
  // only pins for_each_successor yields from an input), on its net's load
  // folded here.
  std::vector<double> arc_delay(static_cast<std::size_t>(n), 0.0);
  succ_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  runtime::parallel_for(pool, options_.jobs, static_cast<std::size_t>(n),
                        kLevelGrain, [&](std::size_t i) {
    if (live[i] == 0) return;
    const PinId pin{static_cast<std::int32_t>(i)};
    const Pin& p = design_.pin(pin);
    const netlist::Cell& cell = design_.cell(p.cell);
    if ((cell.kind == CellKind::kComb && p.role == PinRole::kCombOut) ||
        (cell.kind == CellKind::kClockBuffer && p.role == PinRole::kBufOut)) {
      fold_load(pin);
      arc_delay[i] = cell_arc_delay(pin);
    }
    int count = 0;
    for_each_successor(pin, [&](PinId) { ++count; });
    succ_offset_[i + 1] = count;
  });
  for (int i = 0; i < n; ++i) succ_offset_[i + 1] += succ_offset_[i];
  const std::size_t edges = static_cast<std::size_t>(succ_offset_[n]);
  succ_to_.resize(edges);
  succ_delay_.resize(edges);
  succ_pred_index_.resize(edges);
  runtime::parallel_for(pool, options_.jobs, static_cast<std::size_t>(n),
                        kLevelGrain, [&](std::size_t i) {
    if (live[i] == 0) return;
    const PinId pin{static_cast<std::int32_t>(i)};
    const bool wire = design_.pin(pin).is_output;
    int at = succ_offset_[i];
    for_each_successor(pin, [&](PinId succ) {
      succ_to_[at] = succ.index;
      succ_delay_[at] = wire ? wire_delay(pin, succ) : arc_delay[succ.index];
      ++at;
    });
  });

  // The transpose, as a stable counting sort of the edges by head pin, in
  // parallel and without atomics. The pins are cut into kTransposeParts
  // ranges. Each range of tail pins counts its edges per range of head pins
  // and then scatters them, in edge order, into its slice of that head
  // range's list; each head range then fills its own pins' rows from its
  // list. A row thus lists its entries in edge order, the serial fill's
  // order, at any `jobs`.
  const std::size_t parts = kTransposeParts;
  const std::size_t width = (static_cast<std::size_t>(n) + parts - 1) / parts;
  const auto part_range = [&](std::size_t part) {
    const std::size_t lo = std::min(static_cast<std::size_t>(n), part * width);
    return std::pair{lo, std::min(static_cast<std::size_t>(n), lo + width)};
  };
  // slice[head * parts + tail]: that pair's edge count, then its offset.
  std::vector<std::size_t> slice(parts * parts + 1, 0);
  runtime::parallel_for(pool, options_.jobs, parts, 1, [&](std::size_t tail) {
    std::vector<std::size_t> count(parts, 0);
    const auto [lo, hi] = part_range(tail);
    for (int e = succ_offset_[lo]; e < succ_offset_[hi]; ++e)
      ++count[static_cast<std::size_t>(succ_to_[e]) / width];
    for (std::size_t head = 0; head < parts; ++head)
      slice[head * parts + tail] = count[head];
  });
  std::size_t total = 0;
  for (std::size_t& entry : slice) total += std::exchange(entry, total);
  // Edges grouped by head range, and their tail pins.
  std::vector<std::int32_t> by_head(edges);
  std::vector<std::int32_t> tail_of(edges);
  runtime::parallel_for(pool, options_.jobs, parts, 1, [&](std::size_t tail) {
    std::vector<std::size_t> cursor(parts);
    for (std::size_t head = 0; head < parts; ++head)
      cursor[head] = slice[head * parts + tail];
    const auto [lo, hi] = part_range(tail);
    for (std::size_t i = lo; i < hi; ++i) {
      for (int e = succ_offset_[i]; e < succ_offset_[i + 1]; ++e) {
        const std::size_t at =
            cursor[static_cast<std::size_t>(succ_to_[e]) / width]++;
        by_head[at] = e;
        tail_of[at] = static_cast<std::int32_t>(i);
      }
    }
  });
  pred_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  runtime::parallel_for(pool, options_.jobs, parts, 1, [&](std::size_t head) {
    for (std::size_t k = slice[head * parts]; k < slice[(head + 1) * parts];
         ++k)
      ++pred_offset_[succ_to_[by_head[k]] + 1];
  });
  for (int i = 0; i < n; ++i) pred_offset_[i + 1] += pred_offset_[i];
  pred_to_.resize(edges);
  pred_delay_.resize(edges);
  pred_succ_index_.resize(edges);
  std::vector<int> cursor(pred_offset_.begin(), pred_offset_.end() - 1);
  runtime::parallel_for(pool, options_.jobs, parts, 1, [&](std::size_t head) {
    for (std::size_t k = slice[head * parts]; k < slice[(head + 1) * parts];
         ++k) {
      const int e = by_head[k];
      const int at = cursor[succ_to_[e]]++;
      pred_to_[at] = tail_of[k];
      pred_delay_[at] = succ_delay_[e];
      pred_succ_index_[at] = e;
      succ_pred_index_[e] = at;
    }
  });
}

// Kahn's algorithm over the cached CSR: topo order, levels (longest edge
// distance from a source) and each pin's position in the order. Every edge goes from a lower level to a
// strictly higher one, so one level's pins can be gathered independently
// and a dirty pin's repair can only dirty higher (forward) or lower
// (backward) levels.
void TimingEngine::topo_and_levels(const std::vector<std::uint8_t>& live) {
  const int n = design_.pin_count();
  std::vector<int> indegree(n, 0);
  for (std::int32_t i = 0; i < n; ++i)
    indegree[i] = pred_offset_[i + 1] - pred_offset_[i];
  level_of_.assign(n, 0);
  topo_.clear();
  topo_.reserve(n);
  std::vector<PinId> work;
  int live_pins = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    if (live[i] == 0) continue;
    ++live_pins;
    if (indegree[i] == 0) work.push_back(PinId{i});
  }
  std::size_t head = 0;
  while (head < work.size()) {
    const PinId pin = work[head++];
    topo_.push_back(pin);
    const std::int32_t next_level = level_of_[pin.index] + 1;
    for (int e = succ_offset_[pin.index]; e < succ_offset_[pin.index + 1];
         ++e) {
      const std::int32_t succ = succ_to_[e];
      level_of_[succ] = std::max(level_of_[succ], next_level);
      if (--indegree[succ] == 0) work.push_back(PinId{succ});
    }
  }
  MBRC_ASSERT_MSG(static_cast<int>(topo_.size()) == live_pins,
                  "combinational cycle in design");

  // The FIFO pops pins level by level: a pin of level L + 1 is queued when
  // its last predecessor, of level L, is processed, which is after every
  // level-L pin was queued. So `topo_` is sorted by level already and each
  // level is one range of it, [level_begin_[l], level_begin_[l + 1]).
  level_begin_.assign(1, 0);
  for (std::size_t k = 0; k < topo_.size(); ++k) {
    const auto level = static_cast<std::size_t>(level_of_[topo_[k].index]);
    if (level == level_begin_.size()) level_begin_.push_back(k);
    MBRC_ASSERT_MSG(level + 1 == level_begin_.size(),
                    "Kahn order is not sorted by level");
  }
  level_begin_.push_back(topo_.size());

  pos_of_.assign(n, -1);
  for (std::size_t k = 0; k < topo_.size(); ++k)
    pos_of_[topo_[k].index] = static_cast<std::int32_t>(k);
}

// Seeds, level sweeps and endpoint collection: the values are exactly
// run_sta's (max/min gathers over identical operand sets).
void TimingEngine::seed_and_propagate() {
  const int n = design_.pin_count();
  runtime::ThreadPool* pool =
      options_.jobs > 1 ? &runtime::ThreadPool::global() : nullptr;

  auto& arrival = report_.arrival;
  auto& arrival_min = report_.arrival_min;
  auto& required = report_.required;
  auto& req_min = report_.required_min;
  arrival.assign(n, kNoArrival);
  arrival_min.assign(n, kNoRequired);
  required.assign(n, kNoRequired);
  req_min.assign(n, kNoArrival);
  report_.endpoints.clear();

  // Launch/input seeds (single-arc launch timing: min and max coincide),
  // one live pin per iteration, each writing its own slot; a launch pin
  // folds its net's load first, and a register's clock pin records its
  // library cell.
  seed_arrival_.assign(n, kNoArrival);
  runtime::parallel_for(pool, options_.jobs, topo_.size(), kLevelGrain,
                        [&](std::size_t k) {
    const PinId pin_id = topo_[k];
    const Pin& p = design_.pin(pin_id);
    const CellKind kind = design_.cell(p.cell).kind;
    if (kind == CellKind::kRegister && is_launch_role(p.role)) {
      fold_load(pin_id);
      seed_arrival_[pin_id.index] = launch_seed(pin_id);
    } else if (kind == CellKind::kRegister && p.role == PinRole::kClock) {
      cell_reg_[p.cell.index] = design_.cell(p.cell).reg;  // one per register
    } else if (kind == CellKind::kPort && p.is_output)
      seed_arrival_[pin_id.index] = options_.input_delay;
  });

  // Forward propagation: per-level gathers, parallel when jobs > 1. Every
  // live pin is in exactly one level, so each is written once.
  const std::size_t levels = level_begin_.empty() ? 0 : level_begin_.size() - 1;
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t lo = level_begin_[l];
    const std::size_t hi = level_begin_[l + 1];
    runtime::parallel_for(pool, options_.jobs, hi - lo, kLevelGrain,
                          [&](std::size_t k) {
      const std::int32_t pin = topo_[lo + k].index;
      std::tie(arrival[pin], arrival_min[pin]) = gather_arrival(pin);
    });
  }

  // Endpoint seeds, in parallel: each live pin writes its own setup seed,
  // and its hold seed when it is reached and carries a hold check.
  seed_required_.assign(n, kNoRequired);
  seed_required_min_.assign(n, kNoArrival);
  runtime::parallel_for(pool, options_.jobs, topo_.size(), kLevelGrain,
                        [&](std::size_t k) {
    const PinId pin_id = topo_[k];
    const Pin& p = design_.pin(pin_id);
    if (!p.net.valid()) return;
    const CellKind kind = design_.cell(p.cell).kind;
    const std::int32_t i = pin_id.index;
    if (kind == CellKind::kRegister && is_endpoint_role(p.role)) {
      seed_required_[i] = setup_required(p.cell);
      if (arrival[i] != kNoArrival && arrival_min[i] != kNoRequired)
        seed_required_min_[i] = hold_required(p.cell);
    } else if (kind == CellKind::kPort && !p.is_output) {
      seed_required_[i] = options_.clock_period - options_.output_margin;
    }
  });

  // The endpoint report: one serial pass in topo order, which fixes the
  // order endpoints are listed in. The same slack rule as
  // refresh_endpoints; the report's aggregates are filed after it.
  endpoint_slot_.assign(n, -1);
  for (const PinId pin_id : topo_) {
    const std::int32_t i = pin_id.index;
    if (seed_required_[i] == kNoRequired || arrival[i] == kNoArrival) continue;
    EndpointSlack ep;
    ep.pin = pin_id;
    ep.slack = seed_required_[i] - arrival[i];
    ep.hold_slack = seed_required_min_[i] == kNoArrival
                        ? kNoRequired
                        : arrival_min[i] - seed_required_min_[i];
    endpoint_slot_[i] = static_cast<std::int32_t>(report_.endpoints.size());
    report_.endpoints.push_back(ep);
  }
  report_.index_all_endpoints();

  // Backward propagation of required times (setup: min; hold: max).
  for (std::size_t l = levels; l-- > 0;) {
    const std::size_t lo = level_begin_[l];
    const std::size_t hi = level_begin_[l + 1];
    runtime::parallel_for(pool, options_.jobs, hi - lo, kLevelGrain,
                          [&](std::size_t k) {
      const std::int32_t pin = topo_[lo + k].index;
      std::tie(required[pin], req_min[pin]) = gather_required(pin);
    });
  }
}

void TimingEngine::full_build() {
  const std::size_t n = static_cast<std::size_t>(design_.pin_count());
  // Per-pin liveness (pin -> cell -> dead), computed once for the CSR
  // passes and Kahn's source scan.
  std::vector<std::uint8_t> live(n);
  runtime::parallel_for(
      options_.jobs > 1 ? &runtime::ThreadPool::global() : nullptr,
      options_.jobs, n, kLevelGrain, [&](std::size_t i) {
        const PinId pin{static_cast<std::int32_t>(i)};
        live[i] = design_.cell(design_.pin(pin).cell).dead ? 0 : 1;
      });
  // Filled by the passes below, each net by its driver's fold_load.
  const auto nets = static_cast<std::size_t>(design_.net_count());
  net_load_.assign(nets, 0.0);
  box_owner_.assign(nets, {-1, -1, -1, -1});
  cell_reg_.assign(static_cast<std::size_t>(design_.cell_count()), nullptr);
  {
    obs::Span span("sta.build_edges");
    build_edges(live);
  }
  topo_and_levels(live);
  seed_and_propagate();

  ep_marked_.assign(n, 0);
  net_refolded_.assign(nets, 0);
  fwd_.reset(topo_.size());
  bwd_.reset(topo_.size());
  changed_pins_.clear();
  changed_flag_.assign(n, 0);
}

void TimingEngine::clear_changed_pins() {
  for (const std::int32_t pin : changed_pins_) changed_flag_[pin] = 0;
  changed_pins_.clear();
}

const TimingReport& TimingEngine::update(const SkewMap& skew) {
  assign_skew(skew);
  return refresh();
}

bool TimingEngine::rebuild_pending() const {
  return !built_ || design_.topology_version() != seen_topology_;
}

void TimingEngine::set_skew(CellId cell, double value) {
  current_skew_[cell] = value;
  skew_journal_.push_back(cell);
  ++skew_scanned_;
}

void TimingEngine::clear_skew(CellId cell) {
  current_skew_.erase(cell);
  skew_journal_.push_back(cell);
  ++skew_scanned_;
}

void TimingEngine::assign_skew(const SkewMap& skew) {
  if (rebuild_pending())
    current_skew_ = skew;  // the rebuild seeds every register from it
  else
    apply_skew_diff(skew);
}

const TimingReport& TimingEngine::refresh() {
  static obs::Counter& c_full = obs::counter("sta.engine.full_builds");
  static obs::Counter& c_inc = obs::counter("sta.engine.incremental_updates");
  static obs::Counter& c_early = obs::counter("sta.engine.early_stops");
  static obs::Counter& c_scanned =
      obs::counter("sta.engine.skew_entries_scanned");
  static obs::Counter& c_journal = obs::counter("sta.engine.journal_cells");
  static obs::Counter& c_arcs = obs::counter("sta.engine.arcs_evaluated");
  static obs::Counter& c_load = obs::counter("sta.engine.load_pins_scanned");
  static obs::Counter& c_refiled = obs::counter("sta.engine.endpoints_refiled");
  static obs::Counter& c_folded =
      obs::counter("sta.engine.summary_nodes_folded");
  static obs::Histogram& h_cone = obs::histogram("sta.engine.repaired_pins");

  c_scanned.add(static_cast<std::int64_t>(std::exchange(skew_scanned_, 0)));
  if (rebuild_pending()) {
    obs::Span span("sta.full_build");
    full_build();
    built_ = true;
    seen_topology_ = design_.topology_version();
    journal_cursor_ = design_.touched_cells().size();
    skew_journal_.clear();
    ++stats_.full_builds;
    stats_.last_repaired_pins = 0;
    c_full.add(1);
    return report_;
  }

  obs::Span span("sta.repair");
  const Stats before = stats_;
  stats_.last_repaired_pins = 0;
  replay_skew_journal();
  const auto& journal = design_.touched_cells();
  for (std::size_t i = journal_cursor_; i < journal.size(); ++i)
    touch_cell(journal[i]);
  for (const std::int32_t net : refolded_nets_) net_refolded_[net] = 0;
  refolded_nets_.clear();
  stats_.journal_cells += journal.size() - journal_cursor_;
  journal_cursor_ = journal.size();
  repair();
  ++stats_.incremental_updates;
  const auto delta = [&](std::uint64_t Stats::*field) {
    return static_cast<std::int64_t>(stats_.*field - before.*field);
  };
  c_inc.add(1);
  c_early.add(delta(&Stats::early_stops));
  c_journal.add(delta(&Stats::journal_cells));
  c_arcs.add(delta(&Stats::arcs_evaluated));
  c_load.add(delta(&Stats::load_pins_scanned));
  c_refiled.add(delta(&Stats::endpoints_refiled));
  c_folded.add(delta(&Stats::summary_nodes_folded));
  h_cone.record(static_cast<std::int64_t>(stats_.last_repaired_pins));
  return report_;
}

// Repairs the seeded frontiers: the forward sweep and the endpoints it
// re-filed, then the backward sweep. Required times gather over successors'
// required times and edge delays only, never over arrivals, so the order of
// the two sweeps changes no value; it fixes the change log's order.
void TimingEngine::repair() {
  const RepairTally forward = sweep(true);
  refresh_endpoints();
  const RepairTally backward = sweep(false);
  stats_.last_repaired_pins += forward.repaired + backward.repaired;
  stats_.early_stops += forward.early + backward.early;
}

void TimingEngine::Frontier::reset(std::size_t positions) {
  std::size_t words = positions;
  for (auto& bits : layer) {
    words = (words + 63) / 64;
    bits.assign(words, 0);
  }
  lo = std::numeric_limits<std::int32_t>::max();
  hi = -1;
}

void TimingEngine::Frontier::set(std::size_t pos) {
  for (int k = 0; k < kLayers; ++k, pos /= 64) {
    std::uint64_t& word = layer[k][pos / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    if ((word & bit) != 0) return;  // its summary bits are set already
    word |= bit;
  }
}

std::uint64_t TimingEngine::Frontier::collect(
    std::size_t begin, std::size_t end, std::vector<std::size_t>& out) const {
  std::uint64_t read = 0;
  // Walks the words [lo_word, hi_word] of layer k. A layer-k bit stands for
  // 64^k positions, so the range's bits there are [begin, end - 1] >> 6k.
  const auto walk = [&](const auto& self, int k, std::size_t lo_word,
                        std::size_t hi_word) -> void {
    const std::size_t first = begin >> (6 * k);
    const std::size_t last = (end - 1) >> (6 * k);
    for (std::size_t w = lo_word; w <= hi_word; ++w) {
      ++read;
      std::uint64_t bits = layer[k][w] & range_mask(w * 64, first, last);
      if (k == 0) {
        if (bits != 0) out.push_back(w);
        continue;
      }
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t child =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        self(self, k - 1, child, child);
      }
    }
  };
  constexpr int kTop = kLayers - 1;
  walk(walk, kTop, begin >> (6 * kLayers), (end - 1) >> (6 * kLayers));
  return read;
}

void TimingEngine::Frontier::clear_summaries(
    const std::vector<std::size_t>& words) {
  for (const std::size_t w : words) {
    std::size_t index = w;
    for (int k = 1; k < kLayers && layer[k - 1][index] == 0; ++k) {
      layer[k][index / 64] &= ~(std::uint64_t{1} << (index % 64));
      index /= 64;
    }
  }
}

void TimingEngine::mark_forward(std::int32_t pin) {
  fwd_.set(static_cast<std::size_t>(pos_of_[pin]));
  fwd_.lo = std::min(fwd_.lo, level_of_[pin]);
  fwd_.hi = std::max(fwd_.hi, level_of_[pin]);
}

void TimingEngine::mark_backward(std::int32_t pin) {
  bwd_.set(static_cast<std::size_t>(pos_of_[pin]));
  bwd_.lo = std::min(bwd_.lo, level_of_[pin]);
  bwd_.hi = std::max(bwd_.hi, level_of_[pin]);
}

void TimingEngine::mark_endpoint(std::int32_t pin) {
  if (ep_marked_[pin] != 0) return;
  ep_marked_[pin] = 1;
  ep_marks_.push_back(pin);
}

// Refreshes the seeds that depend on a register's own parameters: launch
// arrivals on the Q side (skew, intrinsic/drive, load) and endpoint
// requirements on the D side (skew, setup/hold). Reachability cannot change
// without a topology edit, so the endpoint *set* is stable here. Writes only
// the register's own pins' seeds and appends the pins whose seed moved to
// `moved`, for mark_seed.
void TimingEngine::refresh_register_seeds(CellId reg,
                                          std::vector<std::int32_t>& moved) {
  const netlist::Cell& cell = design_.cell(reg);
  for (const PinId pin_id : cell.pins) {
    const Pin& p = design_.pin(pin_id);
    const std::int32_t i = pin_id.index;
    if (is_launch_role(p.role)) {
      const double seed = launch_seed(pin_id);
      if (seed != seed_arrival_[i]) {
        seed_arrival_[i] = seed;
        moved.push_back(i);
      }
    } else if (is_endpoint_role(p.role) && p.net.valid()) {
      const double req = setup_required(reg);
      // The hold seed exists only for endpoints in the report (reachable
      // pins); endpoint_slot_ encodes exactly that.
      const double hold_seed =
          endpoint_slot_[i] >= 0 ? hold_required(reg) : kNoArrival;
      if (req != seed_required_[i] || hold_seed != seed_required_min_[i]) {
        seed_required_[i] = req;
        seed_required_min_[i] = hold_seed;
        moved.push_back(i);
      }
    }
  }
}

// A register pin whose seed moved: a launch pin repairs forward, an
// endpoint pin backward, and a reported endpoint re-files its slacks.
void TimingEngine::mark_seed(std::int32_t pin) {
  if (is_launch_role(design_.pin(PinId{pin}).role)) {
    mark_forward(pin);
    return;
  }
  mark_backward(pin);
  if (endpoint_slot_[pin] >= 0) mark_endpoint(pin);
}

void TimingEngine::write_delay(std::int32_t tail, int e, double delay) {
  if (succ_delay_[e] == delay) return;
  succ_delay_[e] = delay;
  pred_delay_[succ_pred_index_[e]] = delay;
  const std::int32_t head = succ_to_[e];
  if (has_arrival(tail)) mark_forward(head);
  if (has_required(head)) mark_backward(tail);
}

bool TimingEngine::load_carries_value(std::int32_t d) const {
  // A register drives its nets from launch pins (Q/SO), whose seeds read
  // the load.
  if (design_.cell(design_.pin(PinId{d}).cell).kind == CellKind::kRegister)
    return true;
  if (pred_offset_[d] == pred_offset_[d + 1]) return false;
  if (has_required(d)) return true;
  for (int e = pred_offset_[d]; e < pred_offset_[d + 1]; ++e)
    if (has_arrival(pred_to_[e])) return true;
  return false;
}

bool TimingEngine::moves_box(NetId net, PinId pin) const {
  const std::array<std::int32_t, 4>& owner = box_owner_[net.index];
  for (const std::int32_t o : owner)
    if (o == pin.index) return true;
  // An owner that moved since the last fold is in the journal too and
  // refolds the net itself, so here the owners' positions are the edges.
  const geom::Point at = design_.pin_position(pin);
  return at.x < design_.pin_position(PinId{owner[0]}).x ||
         at.y < design_.pin_position(PinId{owner[1]}).y ||
         at.x > design_.pin_position(PinId{owner[2]}).x ||
         at.y > design_.pin_position(PinId{owner[3]}).y;
}

void TimingEngine::refold(NetId net_id) {
  if (net_refolded_[net_id.index] != 0) return;
  net_refolded_[net_id.index] = 1;
  refolded_nets_.push_back(net_id.index);
  const netlist::Net& net = design_.net(net_id);
  const std::int32_t d = net.driver.index;
  fold_load(net.driver);
  stats_.load_pins_scanned += 1 + net.sinks.size();

  // The cell arcs into the driver: one delay, the output's.
  if (pred_offset_[d + 1] > pred_offset_[d]) {
    const double arc = cell_arc_delay(net.driver);
    ++stats_.arcs_evaluated;
    for (int e = pred_offset_[d]; e < pred_offset_[d + 1]; ++e)
      write_delay(pred_to_[e], pred_succ_index_[e], arc);
  }
  if (design_.cell(design_.pin(net.driver).cell).kind == CellKind::kRegister) {
    const double seed = launch_seed(net.driver);
    if (seed != seed_arrival_[d]) {
      seed_arrival_[d] = seed;
      mark_forward(d);
    }
  }
}

void TimingEngine::touch_pin(PinId pin, bool cap_changed) {
  const Pin& p = design_.pin(pin);
  const netlist::Net& net = design_.net(p.net);
  if (!net.driver.valid()) return;
  const std::int32_t d = net.driver.index;

  // Wire arcs: a driver's all (an end of each moved), a sink's own (at most
  // one: an input pin's only predecessor is its net's driver). Clock nets
  // carry none.
  if (!net.is_clock) {
    const auto evaluate = [&](int e) {
      const std::int32_t head = succ_to_[e];
      if (!arc_carries_value(d, head)) return;
      ++stats_.arcs_evaluated;
      write_delay(d, e, wire_delay(net.driver, PinId{head}));
    };
    if (p.is_output) {
      for (int e = succ_offset_[d]; e < succ_offset_[d + 1]; ++e) evaluate(e);
    } else {
      for (int e = pred_offset_[pin.index]; e < pred_offset_[pin.index + 1];
           ++e)
        evaluate(pred_succ_index_[e]);
    }
  }

  // The driver's load: its HPWL changes only when the box does, and its
  // cap sum only with a cap. A net the full build never folded has no
  // reader of its load.
  if (box_owner_[p.net.index][0] < 0 || !load_carries_value(d)) return;
  if (cap_changed || moves_box(p.net, pin)) refold(p.net);
}

void TimingEngine::touch_cell(CellId cell_id) {
  const netlist::Cell& cell = design_.cell(cell_id);
  if (cell.dead) return;  // removal bumps the topology version anyway
  // A sizing swap sets a register's D/SI pin caps to the variant's data
  // pin cap and its clock pin cap to the variant's (swap_register_cell);
  // a cap that differs changes its net's load.
  bool data_cap = false;
  bool clock_cap = false;
  if (cell.kind == CellKind::kRegister) {
    const lib::RegisterCell*& seen = cell_reg_[cell_id.index];
    if (seen != cell.reg) {
      data_cap = seen->data_pin_cap != cell.reg->data_pin_cap;
      clock_cap = seen->clock_pin_cap != cell.reg->clock_pin_cap;
      seen = cell.reg;
    }
  }
  for (const PinId pin_id : cell.pins) {
    const Pin& p = design_.pin(pin_id);
    if (!p.net.valid()) continue;
    const bool cap_changed =
        p.role == PinRole::kClock
            ? clock_cap
            : data_cap && (p.role == PinRole::kD || p.role == PinRole::kScanIn);
    touch_pin(pin_id, cap_changed);
  }
  if (cell.kind == CellKind::kRegister) {
    seed_moves_.clear();
    refresh_register_seeds(cell_id, seed_moves_);
    for (const std::int32_t pin : seed_moves_) mark_seed(pin);
  }
}

void TimingEngine::apply_skew_diff(const SkewMap& skew) {
  skew_scanned_ += skew.size() + current_skew_.size();
  const std::size_t journaled = skew_journal_.size();
  // mbrc-lint: allow(R1, collects into the skew journal, which replay_skew_journal sorts before any order-sensitive work)
  for (const auto& [cell, value] : skew) {
    const auto it = current_skew_.find(cell);
    if ((it == current_skew_.end() ? 0.0 : it->second) != value)
      skew_journal_.push_back(cell);
  }
  // mbrc-lint: allow(R1, collects into the skew journal, which replay_skew_journal sorts before any order-sensitive work)
  for (const auto& [cell, value] : current_skew_) {
    if (value != 0.0 && !skew.contains(cell)) skew_journal_.push_back(cell);
  }
  if (skew_journal_.size() > journaled) current_skew_ = skew;
}

void TimingEngine::replay_skew_journal() {
  if (skew_journal_.empty()) return;
  // Canonicalize: the seeds are refreshed in cell-id order, each register
  // once, whatever the order of the edits (or of the diffed hash maps).
  std::vector<CellId>& changed = skew_journal_;
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::erase_if(changed, [&](CellId cell) {
    const netlist::Cell& c = design_.cell(cell);
    return c.dead || c.kind != CellKind::kRegister;
  });
  // Each register rewrites only its own pins' seeds, so chunks of registers
  // run in parallel; the moved pins are marked after, in register order.
  std::vector<std::vector<std::int32_t>> moved(
      (changed.size() + kSeedGrain - 1) / kSeedGrain);
  runtime::parallel_for(
      options_.jobs > 1 ? &runtime::ThreadPool::global() : nullptr,
      options_.jobs, moved.size(), 1, [&](std::size_t c) {
        const std::size_t stop =
            std::min(changed.size(), (c + 1) * kSeedGrain);
        for (std::size_t i = c * kSeedGrain; i < stop; ++i)
          refresh_register_seeds(changed[i], moved[c]);
      });
  for (const auto& pins : moved)
    for (const std::int32_t pin : pins) mark_seed(pin);
  changed.clear();
}

// Repairs one direction's frontier level by level: arrivals in ascending
// levels (forward), required times in descending levels (backward). A dirty
// pin re-gathers over the same operand set the full sweep folds, so its
// value is bit-identical; when it equals the cached value the cone is not
// expanded further (early termination), otherwise the pin marks its
// successors (forward) or predecessors (backward), all in levels still to
// come. Each level's dirty words are split into fixed chunks of
// kChunkWords; chunks write disjoint pins and their own slots, and are
// folded in chunk order, so the log, the tallies and the counter below are
// the same at every `jobs`.
TimingEngine::RepairTally TimingEngine::sweep(bool forward) {
  static obs::Counter& c_words =
      obs::counter("sta.engine.frontier_words_scanned");
  Frontier& frontier = forward ? fwd_ : bwd_;
  RepairTally tally;
  if (frontier.lo > frontier.hi) return tally;
  runtime::ThreadPool* pool =
      options_.jobs > 1 ? &runtime::ThreadPool::global() : nullptr;
  std::uint64_t words_read = 0;
  const std::int32_t step = forward ? 1 : -1;
  std::int32_t level = forward ? frontier.lo : frontier.hi;
  // The furthest position marked so far; levels are position ranges, so
  // the sweep ends at the level that holds it.
  std::int32_t reach = static_cast<std::int32_t>(
      forward ? level_begin_[frontier.hi + 1] - 1 : level_begin_[frontier.lo]);
  for (;; level += step) {
    const std::size_t begin = level_begin_[level];
    const std::size_t end = level_begin_[level + 1];
    dirty_words_.clear();
    words_read += frontier.collect(begin, end, dirty_words_);
    const std::size_t chunk_words =
        dirty_words_.size() <= kSerialWords ? kSerialWords : kChunkWords;
    const std::size_t chunks =
        (dirty_words_.size() + chunk_words - 1) / chunk_words;
    if (slots_.size() < chunks) slots_.resize(chunks);
    if (chunks > 1) ++stats_.split_levels;
    runtime::parallel_for(pool, options_.jobs, chunks, 1, [&](std::size_t c) {
      sweep_chunk(forward, begin, end, c * chunk_words,
                  std::min(dirty_words_.size(), (c + 1) * chunk_words),
                  slots_[c]);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      ChunkSlot& slot = slots_[c];
      tally.repaired += slot.tally.repaired;
      tally.early += slot.tally.early;
      changed_pins_.insert(changed_pins_.end(), slot.changed.begin(),
                           slot.changed.end());
      ep_marks_.insert(ep_marks_.end(), slot.endpoints.begin(),
                       slot.endpoints.end());
      for (const std::int32_t pos : slot.marks) frontier.set(pos);
      reach = forward ? std::max(reach, slot.reach) : std::min(reach, slot.reach);
      slot.changed.clear();
      slot.endpoints.clear();
      slot.marks.clear();
    }
    frontier.clear_summaries(dirty_words_);
    if (forward ? static_cast<std::size_t>(reach) < end
                : static_cast<std::size_t>(reach) >= begin)
      break;
  }
  frontier.lo = std::numeric_limits<std::int32_t>::max();
  frontier.hi = -1;
  c_words.add(static_cast<std::int64_t>(words_read));
  return tally;
}

// One chunk of a level's dirty words: takes the level's bits out of each
// word (its other bits belong to other levels), then gathers, compares and
// writes each pin in position order. The chunk owns its words and its pins;
// the pins it logs and the marks it makes go into its slot, and the caller
// appends and sets them.
void TimingEngine::sweep_chunk(bool forward, std::size_t begin,
                               std::size_t end, std::size_t first,
                               std::size_t stop, ChunkSlot& slot) {
  Frontier& frontier = forward ? fwd_ : bwd_;
  auto& value = forward ? report_.arrival : report_.required;
  auto& value_min = forward ? report_.arrival_min : report_.required_min;
  slot.tally = {};
  slot.reach = forward ? -1 : std::numeric_limits<std::int32_t>::max();
  // The chunk's pins first, in position order: independent loads of topo_
  // that overlap, where a load per pin behind its gather would not.
  slot.pins.clear();
  for (std::size_t k = first; k < stop; ++k) {
    const std::size_t w = dirty_words_[k];
    const std::uint64_t mask = range_mask(w * 64, begin, end - 1);
    std::uint64_t bits = frontier.layer[0][w] & mask;
    frontier.layer[0][w] &= ~mask;
    for (; bits != 0; bits &= bits - 1)
      slot.pins.push_back(
          topo_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
              .index);
  }
  for (const std::int32_t pin : slot.pins) {
    {
      const auto [v, v_min] =
          forward ? gather_arrival(pin) : gather_required(pin);
      ++slot.tally.repaired;
      if (v == value[pin] && v_min == value_min[pin]) {
        ++slot.tally.early;
        continue;
      }
      value[pin] = v;
      value_min[pin] = v_min;
      // The pin is this chunk's alone in this sweep, and so are its two
      // flags: log_change and mark_endpoint, without the shared lists.
      if (changed_flag_[pin] == 0) {
        changed_flag_[pin] = 1;
        slot.changed.push_back(pin);
      }
      if (forward) {
        if (endpoint_slot_[pin] >= 0 && ep_marked_[pin] == 0) {
          ep_marked_[pin] = 1;
          slot.endpoints.push_back(pin);
        }
        for (int e = succ_offset_[pin]; e < succ_offset_[pin + 1]; ++e) {
          const std::int32_t mark = pos_of_[succ_to_[e]];
          slot.marks.push_back(mark);
          slot.reach = std::max(slot.reach, mark);
        }
      } else {
        for (int e = pred_offset_[pin]; e < pred_offset_[pin + 1]; ++e) {
          const std::int32_t mark = pos_of_[pred_to_[e]];
          slot.marks.push_back(mark);
          slot.reach = std::min(slot.reach, mark);
        }
      }
    }
  }
}

void TimingEngine::refresh_endpoints() {
  const auto& arrival = report_.arrival;
  const auto& arrival_min = report_.arrival_min;
  for (const std::int32_t pin : ep_marks_) {
    const auto slot = static_cast<std::size_t>(endpoint_slot_[pin]);
    EndpointSlack& ep = report_.endpoints[slot];
    const EndpointSlack old = ep;
    ep.slack = seed_required_[pin] - arrival[pin];
    ep.hold_slack = seed_required_min_[pin] == kNoArrival
                        ? kNoRequired
                        : arrival_min[pin] - seed_required_min_[pin];
    if (report_.refile_endpoint(slot, old)) ++stats_.endpoints_refiled;
    ep_marked_[pin] = 0;
  }
  ep_marks_.clear();
  stats_.summary_nodes_folded += report_.fold_summaries();
}

}  // namespace mbrc::sta
