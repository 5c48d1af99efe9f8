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

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "netlist/design.hpp"
#include "util/exact_sum.hpp"

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

/// The five endpoint aggregates of a report (TimingReport::summary).
struct TimingSummary {
  double wns = 0.0;
  double tns = 0.0;
  int failing_endpoints = 0;
  double hold_wns = 0.0;
  int failing_hold_endpoints = 0;
};

/// Result of one STA run. Pin arrays are indexed by PinId.
///
/// The report keeps its endpoint aggregates filed per endpoint slot, so
/// reading them costs O(1) and keeping them costs O(endpoints re-filed). A
/// slot files its failing slacks: its setup slack when < 0 and its hold
/// slack when < 0, else 0.0. TNS is the exact sum of the filed setup slacks
/// (util::ExactSum), rounded once when read; WNS and hold WNS are the root
/// of a min-tree over the filed values; two counts hold the failing slots.
/// TimingEngine is the report's only writer and re-files a slot wherever it
/// writes its slacks. Code that edits `endpoints` directly leaves the
/// aggregates stale.
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
  /// Total negative slack over endpoints (ns, <= 0): the exact sum of the
  /// failing setup slacks rounded to nearest, so its bits depend only on
  /// the set of slacks, not on the endpoint order or the edit history.
  double tns() const { return tns_.round(); }
  int failing_endpoints() const { return failing_; }
  int total_endpoints() const { return static_cast<int>(endpoints.size()); }

  /// Hold-side aggregates (register D endpoints only; ports carry no hold
  /// check in this model).
  double hold_wns() const;
  int failing_hold_endpoints() const { return hold_failing_; }

  /// All five aggregates above, each bit-identical to its accessor.
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

  /// One min-tree node: the least filed setup and hold slacks below it.
  struct FiledMin {
    double setup = 0.0;
    double hold = 0.0;
  };

  /// Files every endpoint afresh (after a full build): O(endpoints).
  void index_all_endpoints();
  /// Re-files endpoint `slot`, whose slacks were `old` before the caller
  /// rewrote them. TNS and the counts follow at once; a changed filed value
  /// marks the slot's min-tree path for fold_summaries(). Returns whether a
  /// filed value changed.
  bool refile_endpoint(std::size_t slot, const EndpointSlack& old);
  /// Recomputes each min-tree node marked since the last fold, once,
  /// children before parents. Returns the nodes recomputed.
  std::size_t fold_summaries();
  /// The filed values of tree node `node`: an internal node's, or for
  /// `node` >= the slot count, the filed slacks of slot `node - slots`.
  FiledMin filed(std::size_t node) const;
  /// Recomputes internal node `node` from its two children.
  void refold(std::size_t node);

  // The min-tree, over the implicit layout of a bottom-up segment tree:
  // internal node i (1 <= i < slots) has children 2i and 2i + 1, and node
  // slots + s is the leaf of slot s, read from `endpoints`. Every node lies
  // below node 1, the root. A marked node is flagged and listed by its
  // depth (the bit width of its index, less one), so a fold walks the
  // depths upward and every child is final before its parent.
  std::vector<FiledMin> tree_;
  std::vector<std::uint8_t> tree_marked_;
  std::vector<std::vector<std::size_t>> marked_by_depth_;
  util::ExactSum tns_;    // the failing setup slacks
  int failing_ = 0;       // slots with setup slack < 0
  int hold_failing_ = 0;  // slots with hold slack < 0

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
