#include "sta/timing_engine.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <tuple>

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
// count and fill, the launch and endpoint seeds, and the level sweeps. The
// incremental repair does not split a level: its forward and backward
// sweeps each stay one serial worklist, and with jobs > 1 the two run side
// by side (see repair()).
constexpr std::size_t kLevelGrain = 256;

// Seed pins each repair frontier needs before the forward and backward
// sweeps run concurrently. A service edit or a sizing swap seeds under 128
// pins per side (most under 64) and its repair costs microseconds, below
// the cost of a pool hand-off; a useful-skew pass on D1x10 seeds 8k-32k.
constexpr std::size_t kConcurrentRepairMin = 256;

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

double TimingEngine::driver_load(PinId driver) const {
  const Pin& p = design_.pin(driver);
  if (!p.net.valid()) return 0.0;
  double load = design_.net_hpwl(p.net) * options_.wire_cap_per_um;
  for (PinId s : design_.net(p.net).sinks) load += design_.pin(s).cap;
  return load;
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
  return intrinsic + resistance * driver_load(out) * kNsPerKohmFf;
}

// The register timing rules, shared by the full build and the repairs.

double TimingEngine::launch_seed(PinId q_pin) const {
  const Pin& p = design_.pin(q_pin);
  const netlist::Cell& cell = design_.cell(p.cell);
  const double clk_to_q =
      cell.reg->intrinsic_delay +
      cell.reg->drive_resistance * driver_load(q_pin) * kNsPerKohmFf;
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

  // Count pass, plus the cell-arc delay of every comb/buffer output: the
  // only pins for_each_successor yields from an input.
  std::vector<double> arc_delay(static_cast<std::size_t>(n), 0.0);
  succ_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  runtime::parallel_for(pool, options_.jobs, static_cast<std::size_t>(n),
                        kLevelGrain, [&](std::size_t i) {
    if (live[i] == 0) return;
    const PinId pin{static_cast<std::int32_t>(i)};
    const Pin& p = design_.pin(pin);
    const netlist::Cell& cell = design_.cell(p.cell);
    if ((cell.kind == CellKind::kComb && p.role == PinRole::kCombOut) ||
        (cell.kind == CellKind::kClockBuffer && p.role == PinRole::kBufOut))
      arc_delay[i] = cell_arc_delay(pin);
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

  pred_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t e = 0; e < edges; ++e)
    ++pred_offset_[static_cast<std::size_t>(succ_to_[e]) + 1];
  for (int i = 0; i < n; ++i) pred_offset_[i + 1] += pred_offset_[i];
  pred_to_.resize(edges);
  pred_delay_.resize(edges);
  pred_succ_index_.resize(edges);
  std::vector<int> cursor(pred_offset_.begin(), pred_offset_.end() - 1);
  for (std::int32_t i = 0; i < n; ++i) {
    for (int e = succ_offset_[i]; e < succ_offset_[i + 1]; ++e) {
      const int at = cursor[succ_to_[e]]++;
      pred_to_[at] = i;
      pred_delay_[at] = succ_delay_[e];
      pred_succ_index_[at] = e;
      succ_pred_index_[e] = at;
    }
  }
}

// Kahn's algorithm over the cached CSR: topo order plus levels (longest
// edge distance from a source). Every edge goes from a lower level to a
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
  // one live pin per iteration, each writing its own slot.
  seed_arrival_.assign(n, kNoArrival);
  runtime::parallel_for(pool, options_.jobs, topo_.size(), kLevelGrain,
                        [&](std::size_t k) {
    const PinId pin_id = topo_[k];
    const Pin& p = design_.pin(pin_id);
    const CellKind kind = design_.cell(p.cell).kind;
    if (kind == CellKind::kRegister && is_launch_role(p.role))
      seed_arrival_[pin_id.index] = launch_seed(pin_id);
    else if (kind == CellKind::kPort && p.is_output)
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

  // The endpoint report: one serial pass in topo order, matching run_sta's
  // historical iteration order (the order TNS sums in). The same slack rule
  // as refresh_endpoints; the failing index is rebuilt after it.
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
  {
    obs::Span span("sta.build_edges");
    build_edges(live);
  }
  topo_and_levels(live);
  seed_and_propagate();

  fwd_stamp_.assign(n, 0);
  bwd_stamp_.assign(n, 0);
  ep_stamp_.assign(n, 0);
  net_stamp_.assign(static_cast<std::size_t>(design_.net_count()), 0);
  const std::size_t levels = level_begin_.empty() ? 0 : level_begin_.size() - 1;
  fwd_bucket_.assign(levels, {});
  bwd_bucket_.assign(levels, {});
  epoch_ = 0;
  changed_pins_.clear();
  changed_flag_.assign(n, 0);
}

void TimingEngine::clear_changed_pins() {
  for (const std::int32_t pin : changed_pins_) changed_flag_[pin] = 0;
  changed_pins_.clear();
}

void TimingEngine::log_change(std::int32_t pin) {
  if (changed_flag_[pin] != 0) return;
  changed_flag_[pin] = 1;
  changed_pins_.push_back(pin);
}

const TimingReport& TimingEngine::update(const SkewMap& skew) {
  return sync(&skew);
}

const TimingReport& TimingEngine::refresh() { return sync(nullptr); }

// One path for update() and refresh(): `skew` is null when the skew of the
// last update stays in force, so only the edit journal is replayed.
const TimingReport& TimingEngine::sync(const SkewMap* skew) {
  static obs::Counter& c_full = obs::counter("sta.engine.full_builds");
  static obs::Counter& c_inc = obs::counter("sta.engine.incremental_updates");
  static obs::Counter& c_early = obs::counter("sta.engine.early_stops");
  static obs::Histogram& h_cone = obs::histogram("sta.engine.repaired_pins");

  if (!built_ || design_.topology_version() != seen_topology_) {
    obs::Span span("sta.full_build");
    if (skew != nullptr) current_skew_ = *skew;
    full_build();
    built_ = true;
    seen_topology_ = design_.topology_version();
    journal_cursor_ = design_.touched_cells().size();
    ++stats_.full_builds;
    stats_.last_repaired_pins = 0;
    c_full.add(1);
    return report_;
  }

  obs::Span span("sta.repair");
  const std::uint64_t early_before = stats_.early_stops;
  begin_epoch();
  if (skew != nullptr) apply_skew_diff(*skew);
  const auto& journal = design_.touched_cells();
  for (std::size_t i = journal_cursor_; i < journal.size(); ++i)
    touch_cell(journal[i]);
  journal_cursor_ = journal.size();
  repair();
  ++stats_.incremental_updates;
  c_inc.add(1);
  c_early.add(static_cast<std::int64_t>(stats_.early_stops - early_before));
  h_cone.record(static_cast<std::int64_t>(stats_.last_repaired_pins));
  return report_;
}

// Repairs the seeded frontiers. The forward side (arrivals, endpoint slacks,
// the failing index) and the backward side (required times) read and write
// disjoint data: required times gather over successors' required times and
// edge delays only, never over arrivals. So with jobs > 1, pool workers and
// both frontiers wide, the backward sweep runs on the pool while this
// thread runs the forward one.
// Either way the backward side's changed pins are logged after the forward
// side's, so changed_pins() has the serial order at any jobs count.
void TimingEngine::repair() {
  const auto frontier = [](const std::vector<std::vector<std::int32_t>>& buckets,
                           std::int32_t lo, std::int32_t hi) {
    std::size_t pins = 0;
    for (std::int32_t level = lo; level <= hi; ++level)
      pins += buckets[level].size();
    return pins;
  };
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const bool concurrent =
      options_.jobs > 1 && pool.worker_count() > 0 &&
      frontier(fwd_bucket_, fwd_lo_, fwd_hi_) >= kConcurrentRepairMin &&
      frontier(bwd_bucket_, bwd_lo_, bwd_hi_) >= kConcurrentRepairMin;

  RepairTally forward;
  RepairTally backward;
  if (concurrent) {
    std::future<RepairTally> backward_future;
    // The task captures this engine by reference; the drain guard keeps
    // every exit path from leaving it running.
    runtime::FutureDrain frame_drain(pool);
    backward_future = pool.async([this] { return repair_backward(); });
    frame_drain.watch(backward_future);
    forward = repair_forward();
    refresh_endpoints();
    backward = runtime::help_get(pool, std::move(backward_future));
    ++stats_.concurrent_repairs;
  } else {
    forward = repair_forward();
    refresh_endpoints();
    backward = repair_backward();
  }
  for (const std::int32_t pin : bwd_changed_) log_change(pin);
  bwd_changed_.clear();
  stats_.last_repaired_pins += forward.repaired + backward.repaired;
  stats_.early_stops += forward.early + backward.early;
}

void TimingEngine::begin_epoch() {
  ++epoch_;
  fwd_lo_ = static_cast<std::int32_t>(fwd_bucket_.size());
  fwd_hi_ = -1;
  bwd_lo_ = static_cast<std::int32_t>(bwd_bucket_.size());
  bwd_hi_ = -1;
  ep_marks_.clear();
  stats_.last_repaired_pins = 0;
}

void TimingEngine::mark_forward(std::int32_t pin) {
  if (fwd_stamp_[pin] == epoch_) return;
  fwd_stamp_[pin] = epoch_;
  const std::int32_t level = level_of_[pin];
  fwd_bucket_[level].push_back(pin);
  fwd_lo_ = std::min(fwd_lo_, level);
  fwd_hi_ = std::max(fwd_hi_, level);
}

void TimingEngine::mark_backward(std::int32_t pin) {
  if (bwd_stamp_[pin] == epoch_) return;
  bwd_stamp_[pin] = epoch_;
  const std::int32_t level = level_of_[pin];
  bwd_bucket_[level].push_back(pin);
  bwd_lo_ = std::min(bwd_lo_, level);
  bwd_hi_ = std::max(bwd_hi_, level);
}

void TimingEngine::mark_endpoint(std::int32_t pin) {
  if (ep_stamp_[pin] == epoch_) return;
  ep_stamp_[pin] = epoch_;
  ep_marks_.push_back(pin);
}

// Refreshes the seeds that depend on a register's own parameters: launch
// arrivals on the Q side (skew, intrinsic/drive, load) and endpoint
// requirements on the D side (skew, setup/hold). Reachability cannot change
// without a topology edit, so the endpoint *set* is stable here.
void TimingEngine::refresh_register_seeds(CellId reg) {
  const netlist::Cell& cell = design_.cell(reg);
  for (const PinId pin_id : cell.pins) {
    const Pin& p = design_.pin(pin_id);
    const std::int32_t i = pin_id.index;
    if (is_launch_role(p.role)) {
      const double seed = launch_seed(pin_id);
      if (seed != seed_arrival_[i]) {
        seed_arrival_[i] = seed;
        mark_forward(i);
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
        mark_backward(i);
        if (endpoint_slot_[i] >= 0) mark_endpoint(i);
      }
    }
  }
}

// Re-evaluates every cached edge delay that depends on `net`: the cell arcs
// into its driver (the driver's load changed) and the wire arcs from the
// driver to each sink (an end moved). Changed delays dirty the edge head
// (forward) and tail (backward).
void TimingEngine::touch_net(NetId net_id) {
  if (net_stamp_[net_id.index] == epoch_) return;
  net_stamp_[net_id.index] = epoch_;
  const netlist::Net& net = design_.net(net_id);
  if (!net.driver.valid()) return;
  const std::int32_t d = net.driver.index;

  // Cell arcs into the driver first: its load includes this net even when
  // the net is a clock net (a clock buffer's in->out arc reads the clock
  // net's HPWL and sink caps, even though clock nets carry no wire arcs).
  if (pred_offset_[d + 1] > pred_offset_[d]) {
    const double arc = cell_arc_delay(net.driver);
    for (int e = pred_offset_[d]; e < pred_offset_[d + 1]; ++e) {
      if (pred_delay_[e] == arc) continue;
      pred_delay_[e] = arc;
      succ_delay_[pred_succ_index_[e]] = arc;
      mark_forward(d);
      mark_backward(pred_to_[e]);
    }
  }

  const Pin& dp = design_.pin(net.driver);
  const netlist::Cell& dc = design_.cell(dp.cell);
  if (dc.kind == CellKind::kRegister && is_launch_role(dp.role)) {
    const double seed = launch_seed(net.driver);
    if (seed != seed_arrival_[d]) {
      seed_arrival_[d] = seed;
      mark_forward(d);
    }
  }

  if (net.is_clock) return;  // clock nets carry no wire arcs

  for (int e = succ_offset_[d]; e < succ_offset_[d + 1]; ++e) {
    const PinId sink{succ_to_[e]};
    const double w = wire_delay(net.driver, sink);
    if (succ_delay_[e] == w) continue;
    succ_delay_[e] = w;
    pred_delay_[succ_pred_index_[e]] = w;
    mark_forward(sink.index);
    mark_backward(d);
  }
}

void TimingEngine::touch_cell(CellId cell_id) {
  const netlist::Cell& cell = design_.cell(cell_id);
  if (cell.dead) return;  // removal bumps the topology version anyway
  for (const PinId pin_id : cell.pins) {
    const Pin& p = design_.pin(pin_id);
    if (p.net.valid()) touch_net(p.net);
  }
  if (cell.kind == CellKind::kRegister) refresh_register_seeds(cell_id);
}

void TimingEngine::apply_skew_diff(const SkewMap& skew) {
  static obs::Counter& c_scanned =
      obs::counter("sta.engine.skew_entries_scanned");
  c_scanned.add(static_cast<std::int64_t>(skew.size() + current_skew_.size()));
  std::vector<CellId> changed;
  // mbrc-lint: allow(R1, collects into changed which is sorted below before any order-sensitive work)
  for (const auto& [cell, value] : skew) {
    const auto it = current_skew_.find(cell);
    if ((it == current_skew_.end() ? 0.0 : it->second) != value)
      changed.push_back(cell);
  }
  // mbrc-lint: allow(R1, collects into changed which is sorted below before any order-sensitive work)
  for (const auto& [cell, value] : current_skew_) {
    if (value != 0.0 && !skew.contains(cell)) changed.push_back(cell);
  }
  if (changed.empty()) return;
  // Canonicalize: the seeds are refreshed in cell-id order regardless of the
  // two hash maps' iteration order above.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  current_skew_ = skew;
  for (const CellId cell : changed) {
    const netlist::Cell& c = design_.cell(cell);
    if (c.dead || c.kind != CellKind::kRegister) continue;
    refresh_register_seeds(cell);
  }
}

// Worklist repair of the max/min arrivals, ascending over the cached
// levels. A pin's new value is a gather over the same operand set the full
// sweep folds, so the result is bit-identical; when it equals the cached
// value the cone is not expanded further (early termination).
TimingEngine::RepairTally TimingEngine::repair_forward() {
  auto& arrival = report_.arrival;
  auto& arrival_min = report_.arrival_min;
  RepairTally tally;
  for (std::int32_t level = fwd_lo_; level <= fwd_hi_; ++level) {
    auto& bucket = fwd_bucket_[level];
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const std::int32_t pin = bucket[k];
      const auto [a, a_min] = gather_arrival(pin);
      ++tally.repaired;
      if (a == arrival[pin] && a_min == arrival_min[pin]) {
        ++tally.early;
        continue;
      }
      arrival[pin] = a;
      arrival_min[pin] = a_min;
      log_change(pin);
      if (endpoint_slot_[pin] >= 0) mark_endpoint(pin);
      for (int e = succ_offset_[pin]; e < succ_offset_[pin + 1]; ++e)
        mark_forward(succ_to_[e]);  // strictly higher levels only
    }
    bucket.clear();
  }
  return tally;
}

// Mirror image of repair_forward: required times, descending levels,
// gathering over successors. Touches only required*, bwd_* and its own
// change list bwd_changed_ (repair() merges that into the log), so it may
// run beside repair_forward.
TimingEngine::RepairTally TimingEngine::repair_backward() {
  auto& required = report_.required;
  auto& req_min = report_.required_min;
  RepairTally tally;
  for (std::int32_t level = bwd_hi_; level >= bwd_lo_; --level) {
    auto& bucket = bwd_bucket_[level];
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const std::int32_t pin = bucket[k];
      const auto [r, r_min] = gather_required(pin);
      ++tally.repaired;
      if (r == required[pin] && r_min == req_min[pin]) {
        ++tally.early;
        continue;
      }
      required[pin] = r;
      req_min[pin] = r_min;
      bwd_changed_.push_back(pin);
      for (int e = pred_offset_[pin]; e < pred_offset_[pin + 1]; ++e)
        mark_backward(pred_to_[e]);  // strictly lower levels only
    }
    bucket.clear();
  }
  return tally;
}

void TimingEngine::refresh_endpoints() {
  const auto& arrival = report_.arrival;
  const auto& arrival_min = report_.arrival_min;
  for (const std::int32_t pin : ep_marks_) {
    EndpointSlack& ep = report_.endpoints[endpoint_slot_[pin]];
    ep.slack = seed_required_[pin] - arrival[pin];
    ep.hold_slack = seed_required_min_[pin] == kNoArrival
                        ? kNoRequired
                        : arrival_min[pin] - seed_required_min_[pin];
    report_.index_endpoint(static_cast<std::size_t>(endpoint_slot_[pin]));
  }
}

}  // namespace mbrc::sta
