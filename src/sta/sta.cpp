#include "sta/sta.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sta/timing_engine.hpp"

namespace mbrc::sta {

namespace {

// Endpoint entries the summary walks read: the failing and hold-failing
// slots, never the whole list. Flushed once per walk.
void count_visited(int entries) {
  static obs::Counter& c_visited = obs::counter("sta.summary.entries_visited");
  c_visited.add(entries);
}

}  // namespace

// The walks fold only the indexed slots, in slot order. A slack >= 0 (or
// NaN) never lowers a minimum that starts at 0.0 and is no part of TNS, so
// each walk returns the bits of the same fold over every endpoint.

double TimingReport::wns() const {
  double w = 0.0;
  failing_.for_each(
      [&](std::size_t slot) { w = std::min(w, endpoints[slot].slack); });
  count_visited(failing_.size());
  return w;
}

double TimingReport::tns() const {
  double t = 0.0;
  failing_.for_each([&](std::size_t slot) { t += endpoints[slot].slack; });
  count_visited(failing_.size());
  return t;
}

double TimingReport::hold_wns() const {
  double w = 0.0;
  hold_failing_.for_each(
      [&](std::size_t slot) { w = std::min(w, endpoints[slot].hold_slack); });
  count_visited(hold_failing_.size());
  return w;
}

TimingSummary TimingReport::summary() const {
  obs::Span span("sta.summary");
  TimingSummary s;
  s.failing_endpoints = failing_.size();
  s.failing_hold_endpoints = hold_failing_.size();
  failing_.for_each([&](std::size_t slot) {
    const double slack = endpoints[slot].slack;
    s.wns = std::min(s.wns, slack);
    s.tns += slack;
  });
  hold_failing_.for_each([&](std::size_t slot) {
    s.hold_wns = std::min(s.hold_wns, endpoints[slot].hold_slack);
  });
  count_visited(s.failing_endpoints + s.failing_hold_endpoints);
  return s;
}

void TimingReport::index_all_endpoints() {
  failing_.reset(endpoints.size());
  hold_failing_.reset(endpoints.size());
  for (std::size_t slot = 0; slot < endpoints.size(); ++slot)
    index_endpoint(slot);
}

double TimingReport::worst_register_slack(const netlist::Design& design,
                                          netlist::CellId reg, bool q_side,
                                          bool hold) const {
  const netlist::PinRole data = q_side ? netlist::PinRole::kQ
                                       : netlist::PinRole::kD;
  const netlist::PinRole scan = q_side ? netlist::PinRole::kScanOut
                                       : netlist::PinRole::kScanIn;
  double worst = kNoRequired;
  for (netlist::PinId pin_id : design.cell(reg).pins) {
    const netlist::Pin& p = design.pin(pin_id);
    if ((p.role == data || p.role == scan) && p.net.valid())
      worst = std::min(worst, hold ? hold_slack(pin_id) : slack(pin_id));
  }
  return worst;
}

// One-shot oracle: a throwaway TimingEngine doing one full build + one
// propagation. Persistent callers hold a TimingEngine instead and get
// dirty-cone repair; the results are bit-identical either way (the engine
// computes every value as a max/min gather over the same operand sets at
// any jobs count -- see timing_engine.hpp).
TimingReport run_sta(const netlist::Design& design,
                     const TimingOptions& options, const SkewMap& skew) {
  TimingEngine engine(design, options);
  return engine.update(skew);
}

}  // namespace mbrc::sta
