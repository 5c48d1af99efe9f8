#include "sta/sta.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"
#include "sta/timing_engine.hpp"

namespace mbrc::sta {

namespace {

// The filed value of a slack: itself when failing, else 0.0. A slack >= 0
// (or a NaN) never lowers a minimum that starts at 0.0 and is no part of
// TNS, so the min-tree's root holds the bits of the same minimum over every
// endpoint, and the exact sum holds only the failing slacks.
double failing(double slack) { return slack < 0 ? slack : 0.0; }

}  // namespace

TimingReport::FiledMin TimingReport::filed(std::size_t node) const {
  if (node < tree_.size()) return tree_[node];
  const EndpointSlack& e = endpoints[node - tree_.size()];
  return {failing(e.slack), failing(e.hold_slack)};
}

void TimingReport::refold(std::size_t node) {
  const FiledMin left = filed(2 * node);
  const FiledMin right = filed(2 * node + 1);
  tree_[node] = {std::min(left.setup, right.setup),
                 std::min(left.hold, right.hold)};
}

double TimingReport::wns() const {
  return endpoints.empty() ? 0.0 : filed(1).setup;
}

double TimingReport::hold_wns() const {
  return endpoints.empty() ? 0.0 : filed(1).hold;
}

TimingSummary TimingReport::summary() const {
  obs::Span span("sta.summary");
  return {wns(), tns(), failing_, hold_wns(), hold_failing_};
}

void TimingReport::index_all_endpoints() {
  const std::size_t slots = endpoints.size();
  tree_.assign(slots, FiledMin{});
  for (std::size_t node = slots; node-- > 1;) refold(node);
  tree_marked_.assign(slots, 0);
  marked_by_depth_.assign(static_cast<std::size_t>(std::bit_width(slots)), {});
  tns_.clear();
  failing_ = 0;
  hold_failing_ = 0;
  for (const EndpointSlack& e : endpoints) {
    if (e.slack < 0) {
      tns_.add(e.slack);
      ++failing_;
    }
    if (e.hold_slack < 0) ++hold_failing_;
  }
}

bool TimingReport::refile_endpoint(std::size_t slot, const EndpointSlack& old) {
  const EndpointSlack& now = endpoints[slot];
  const double old_setup = failing(old.slack);
  const double new_setup = failing(now.slack);
  const double old_hold = failing(old.hold_slack);
  const double new_hold = failing(now.hold_slack);
  if (old_setup == new_setup && old_hold == new_hold) return false;
  if (old_setup != new_setup) {
    tns_.subtract(old_setup);
    tns_.add(new_setup);
    failing_ += (new_setup < 0) - (old_setup < 0);
  }
  hold_failing_ += (new_hold < 0) - (old_hold < 0);
  // Mark the path up to the first node already marked: its ancestors are.
  for (std::size_t node = (tree_.size() + slot) / 2;
       node != 0 && tree_marked_[node] == 0; node /= 2) {
    tree_marked_[node] = 1;
    marked_by_depth_[static_cast<std::size_t>(std::bit_width(node)) - 1]
        .push_back(node);
  }
  return true;
}

std::size_t TimingReport::fold_summaries() {
  std::size_t folded = 0;
  for (std::size_t depth = marked_by_depth_.size(); depth-- > 0;) {
    for (const std::size_t node : marked_by_depth_[depth]) {
      refold(node);
      tree_marked_[node] = 0;
    }
    folded += marked_by_depth_[depth].size();
    marked_by_depth_[depth].clear();
  }
  return folded;
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
