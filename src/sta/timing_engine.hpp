// Persistent incremental STA engine.
//
// run_sta() rebuilds the timing graph and re-propagates every pin on every
// call; the composition flow calls it once per useful-skew iteration plus
// several more times around composition, so timing dominates the flow's
// wall time. TimingEngine amortizes that: the levelized CSR timing graph is
// built once per netlist *topology* and repeated queries are served by
// dirty-cone repair.
//
//   - A skew change on register R re-seeds R's launch arrivals and D-side
//     endpoint requirements, then re-propagates only R's fan-out cone
//     (arrivals, level order ascending) and fan-in cone (requireds,
//     descending), terminating early wherever a recomputed value equals the
//     cached one.
//   - A localized netlist edit that keeps the topology intact -- a
//     placement move or a register sizing swap -- reaches the engine
//     through the Design edit journal (Design::notify_moved /
//     swap_register_cell). The engine re-evaluates only the touched nets'
//     edge delays and repairs the cones behind the ones that changed.
//   - A structural edit (rewire, debank split, cell removal) bumps the
//     design's topology version; the next update() falls back to a full
//     rebuild, exactly run_sta's path.
//
// Determinism contract (inherited from the parallel runtime, DESIGN.md §6):
// every value is a pure max/min gather over a fixed operand set, so an
// incremental update is bit-identical to a from-scratch run_sta at any
// `jobs` count. tests/sta_incremental_test.cpp enforces this after
// randomized edit sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "sta/sta.hpp"

namespace mbrc::sta {

class TimingEngine {
public:
  /// Binds the engine to `design` (which must outlive it). Nothing is
  /// built until the first update().
  TimingEngine(const netlist::Design& design, const TimingOptions& options);

  /// Brings the cached report in sync with the design and `skew` and
  /// returns it. Incremental (dirty-cone repair) when only skews changed
  /// or the design's edit journal holds topology-preserving edits; full
  /// rebuild after structural edits. The reference stays valid until the
  /// engine is destroyed but its contents mutate on the next update().
  const TimingReport& update(const SkewMap& skew = {});

  /// The report of the last update(). Invalid before the first update().
  const TimingReport& report() const { return report_; }

  const TimingOptions& options() const { return options_; }
  const netlist::Design& design() const { return design_; }

  /// Observability for tests and benches. The same quantities flow into
  /// the process-wide obs counter registry (sta.engine.*) once per
  /// update(), so traced runs and the flow report see them too.
  struct Stats {
    std::uint64_t full_builds = 0;
    std::uint64_t incremental_updates = 0;
    /// Repair visits that found the recomputed value equal to the cached
    /// one and stopped expanding the cone (cumulative).
    std::uint64_t early_stops = 0;
    /// Pins re-gathered by the last incremental repair (0 after a full
    /// build); the dirty-cone size, the engine's unit of work.
    std::size_t last_repaired_pins = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Change log for observers that derive data from the report (the
  /// service session's compatibility graph): every pin whose arrival or
  /// required time, setup or hold side, changed in an incremental repair
  /// since the last clear_changed_pins(), each listed once, in repair
  /// order. These are exactly the pins the repair did not early-stop on,
  /// and a register endpoint's slack moves only with them. A full build
  /// empties the log: observers detect it by stats().full_builds moving
  /// and must then treat every pin as changed.
  const std::vector<std::int32_t>& changed_pins() const {
    return changed_pins_;
  }
  void clear_changed_pins();

private:
  // --- delay model (identical to run_sta's; see sta.hpp header note) -----
  double register_skew(netlist::CellId cell) const;
  double driver_load(netlist::PinId driver) const;
  double wire_delay(netlist::PinId driver, netlist::PinId sink) const;
  double cell_arc_delay(netlist::PinId out) const;
  double launch_delay(netlist::PinId q_pin) const;

  // --- full build --------------------------------------------------------
  void full_build();
  void build_edges();
  void topo_and_levels();
  void seed_and_propagate();

  // --- incremental repair ------------------------------------------------
  void begin_epoch();
  void touch_cell(netlist::CellId cell);
  void touch_net(netlist::NetId net);
  void refresh_register_seeds(netlist::CellId reg);
  void apply_skew_diff(const SkewMap& skew);
  void mark_forward(std::int32_t pin);
  void mark_backward(std::int32_t pin);
  void mark_endpoint(std::int32_t pin);
  void repair_forward();
  void repair_backward();
  void refresh_endpoints();
  void log_change(std::int32_t pin);

  const netlist::Design& design_;
  const TimingOptions options_;
  SkewMap current_skew_;

  bool built_ = false;
  std::uint64_t seen_topology_ = 0;
  std::size_t journal_cursor_ = 0;

  // Levelized CSR timing graph: successor and transposed predecessor
  // adjacency with one cached delay per edge, plus cross-links so an edge's
  // delay can be updated in both views in O(1).
  std::vector<int> succ_offset_;
  std::vector<std::int32_t> succ_to_;
  std::vector<double> succ_delay_;
  std::vector<std::int32_t> succ_pred_index_;
  std::vector<int> pred_offset_;
  std::vector<std::int32_t> pred_to_;
  std::vector<double> pred_delay_;
  std::vector<std::int32_t> pred_succ_index_;
  std::vector<netlist::PinId> topo_;
  std::vector<std::int32_t> level_of_;
  std::vector<std::int32_t> by_level_;
  std::vector<std::size_t> level_begin_;

  // Per-pin propagation seeds: launch/input arrivals (kNoArrival when the
  // pin is not a source) and endpoint required times (setup; hold side is
  // kNoArrival when the pin carries no hold check).
  std::vector<double> seed_arrival_;
  std::vector<double> seed_required_;
  std::vector<double> seed_required_min_;
  std::vector<std::int32_t> endpoint_slot_;  // pin -> report_.endpoints index

  TimingReport report_;

  // Dirty tracking, epoch-stamped so nothing is cleared between updates.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> fwd_stamp_;
  std::vector<std::uint64_t> bwd_stamp_;
  std::vector<std::uint64_t> net_stamp_;
  std::vector<std::uint64_t> ep_stamp_;
  std::vector<std::vector<std::int32_t>> fwd_bucket_;  // by level
  std::vector<std::vector<std::int32_t>> bwd_bucket_;
  std::int32_t fwd_lo_ = 0, fwd_hi_ = -1;  // touched level range
  std::int32_t bwd_lo_ = 0, bwd_hi_ = -1;
  std::vector<std::int32_t> ep_marks_;

  // Change log (see changed_pins()); the flag keeps each pin in it once.
  std::vector<std::int32_t> changed_pins_;
  std::vector<std::uint8_t> changed_flag_;

  Stats stats_;
};

}  // namespace mbrc::sta
