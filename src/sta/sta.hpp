// Graph-based static timing analysis over the placed netlist.
//
// Delay model (matching the library's linear model, Sec. 4.1 of the paper):
//   gate arc:  delay = intrinsic + R_drive * (wire cap + sink pin caps)
//   wire arc:  Elmore on Manhattan length from driver to each sink.
// The clock is ideal at the register clock pins except for an explicit
// per-register useful-skew offset (Sec. 1/5: useful skew is applied to the
// composed MBRs after composition).
//
// Launch points: register Q/SO pins and input ports. Capture points
// (endpoints): register D/SI pins (setup check against period + skew) and
// output ports. Register cells cut the graph, so a synthesizable netlist
// yields a DAG; a combinational cycle is reported as an error.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "netlist/design.hpp"

namespace mbrc::sta {

struct TimingOptions {
  double clock_period = 1.0;      // ns
  double wire_cap_per_um = 0.20;  // fF / um
  double wire_res_per_um = 0.003; // kOhm / um
  double input_delay = 0.05;      // ns of arrival at input ports
  double output_margin = 0.05;    // ns subtracted from output-port required
  /// Thread lanes for the levelized propagation passes. 1 runs the serial
  /// reference path; > 1 runs the parallel gather path, whose arrivals,
  /// requireds and endpoint report are bit-identical to serial at any lane
  /// count (max/min reductions over the same operand sets).
  int jobs = 1;
};

/// Per-register clock arrival offsets (useful skew), in ns. Registers not in
/// the map have zero skew.
using SkewMap = std::unordered_map<netlist::CellId, double>;

constexpr double kNoArrival = -std::numeric_limits<double>::infinity();
constexpr double kNoRequired = std::numeric_limits<double>::infinity();

struct EndpointSlack {
  netlist::PinId pin;
  double slack = 0.0;       // setup (max-delay) slack
  double hold_slack = 0.0;  // hold (min-delay) slack; kNoRequired if unchecked
};

/// The five endpoint aggregates of a report, from one walk over its
/// failing-endpoint index (TimingReport::summary).
struct TimingSummary {
  double wns = 0.0;
  double tns = 0.0;
  int failing_endpoints = 0;
  double hold_wns = 0.0;
  int failing_hold_endpoints = 0;
};

/// A set of endpoint slots: one bit per slot plus the member count. Walks
/// visit the members in slot order, testing one word per 64 slots.
class SlotSet {
public:
  /// Empties the set and sizes it for `slots` slots.
  void reset(std::size_t slots) {
    words_.assign((slots + 63) / 64, 0);
    count_ = 0;
  }
  /// Makes `slot` a member or not; the count follows.
  void assign(std::size_t slot, bool member) {
    std::uint64_t& word = words_[slot / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (((word & bit) != 0) == member) return;
    word ^= bit;
    count_ += member ? 1 : -1;
  }
  int size() const { return count_; }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t k = 0; k < words_.size(); ++k)
      for (std::uint64_t word = words_[k]; word != 0; word &= word - 1)
        fn(k * 64 + static_cast<std::size_t>(std::countr_zero(word)));
  }

private:
  std::vector<std::uint64_t> words_;
  int count_ = 0;
};

/// Result of one STA run. Pin arrays are indexed by PinId.
///
/// The report also indexes its failing endpoints: the slots of `endpoints`
/// whose setup slack is < 0, and those whose hold slack is < 0. TimingEngine
/// is the report's only writer and keeps the index in step wherever it
/// writes a slack, so the aggregates below cost O(failing) (plus one word
/// test per 64 endpoints), not O(endpoints). Code that edits `endpoints`
/// directly leaves the index stale.
class TimingReport {
public:
  std::vector<double> arrival;      // latest arrival; kNoArrival if unreachable
  std::vector<double> arrival_min;  // earliest arrival (hold analysis)
  std::vector<double> required;     // kNoRequired when unconstrained
  std::vector<double> required_min; // hold-side required; kNoArrival (-inf)
                                    // when no hold check is downstream
  std::vector<EndpointSlack> endpoints;

  double slack(netlist::PinId pin) const {
    const double a = arrival[pin.index];
    const double r = required[pin.index];
    if (a == kNoArrival || r == kNoRequired) return kNoRequired;
    return r - a;
  }

  /// Hold slack at a pin: earliest arrival minus the hold-side required
  /// time; kNoRequired when no hold check constrains the pin.
  double hold_slack(netlist::PinId pin) const {
    const double a = arrival_min[pin.index];
    const double r = required_min[pin.index];
    if (a == kNoRequired || r == kNoArrival) return kNoRequired;
    return a - r;
  }

  /// Worst negative slack (0 when nothing fails).
  double wns() const;
  /// Total negative slack over endpoints (ns, <= 0), summed in endpoint
  /// order.
  double tns() const;
  int failing_endpoints() const { return failing_.size(); }
  int total_endpoints() const { return static_cast<int>(endpoints.size()); }

  /// Hold-side aggregates (register D endpoints only; ports carry no hold
  /// check in this model).
  double hold_wns() const;
  int failing_hold_endpoints() const { return hold_failing_.size(); }

  /// All five aggregates above from one walk over the failing index, each
  /// bit-identical to its accessor.
  TimingSummary summary() const;

  /// Worst slack over the register's D (and SI) pins; kNoRequired when the
  /// register has no constrained data input.
  double register_d_slack(const netlist::Design& design,
                          netlist::CellId reg) const {
    return worst_register_slack(design, reg, false, false);
  }
  /// Worst slack over the register's Q (and SO) pins.
  double register_q_slack(const netlist::Design& design,
                          netlist::CellId reg) const {
    return worst_register_slack(design, reg, true, false);
  }

  /// Worst *hold* slack over the register's D/SI pins (its own capture
  /// checks) and over its Q/SO pins (the downstream capture checks its
  /// launches feed). Used by hold-aware useful skew.
  double register_d_hold_slack(const netlist::Design& design,
                               netlist::CellId reg) const {
    return worst_register_slack(design, reg, false, true);
  }
  double register_q_hold_slack(const netlist::Design& design,
                               netlist::CellId reg) const {
    return worst_register_slack(design, reg, true, true);
  }

private:
  friend class TimingEngine;

  /// Rebuilds the failing index from every endpoint (after a full build).
  void index_all_endpoints();
  /// Re-files one endpoint slot after its slacks were rewritten.
  void index_endpoint(std::size_t slot) {
    failing_.assign(slot, endpoints[slot].slack < 0);
    hold_failing_.assign(slot, endpoints[slot].hold_slack < 0);
  }

  SlotSet failing_;       // slots with setup slack < 0
  SlotSet hold_failing_;  // slots with hold slack < 0

  /// Worst setup (or `hold`) slack over the register's connected data and
  /// scan pins of one side: D/SI, or Q/SO when `q_side`.
  double worst_register_slack(const netlist::Design& design,
                              netlist::CellId reg, bool q_side,
                              bool hold) const;
};

/// Runs STA. `skew` supplies per-register useful-skew offsets.
TimingReport run_sta(const netlist::Design& design,
                     const TimingOptions& options, const SkewMap& skew = {});

}  // namespace mbrc::sta
