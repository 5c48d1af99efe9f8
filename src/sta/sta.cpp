#include "sta/sta.hpp"

#include <algorithm>

#include "sta/timing_engine.hpp"

namespace mbrc::sta {

double TimingReport::wns() const {
  double w = 0.0;
  for (const EndpointSlack& e : endpoints) w = std::min(w, e.slack);
  return w;
}

double TimingReport::tns() const {
  double t = 0.0;
  for (const EndpointSlack& e : endpoints)
    if (e.slack < 0) t += e.slack;
  return t;
}

int TimingReport::failing_endpoints() const {
  int n = 0;
  for (const EndpointSlack& e : endpoints)
    if (e.slack < 0) ++n;
  return n;
}

double TimingReport::hold_wns() const {
  double w = 0.0;
  for (const EndpointSlack& e : endpoints)
    if (e.hold_slack != kNoRequired) w = std::min(w, e.hold_slack);
  return w;
}

int TimingReport::failing_hold_endpoints() const {
  int n = 0;
  for (const EndpointSlack& e : endpoints)
    if (e.hold_slack != kNoRequired && e.hold_slack < 0) ++n;
  return n;
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
