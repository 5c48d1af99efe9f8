#include "sta/useful_skew.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/counters.hpp"
#include "sta/timing_engine.hpp"
#include "util/assert.hpp"

namespace mbrc::sta {

namespace {

// Sign conventions (see run_sta): increasing a register's skew by ds
//   - raises its D-endpoint required time      -> D slack changes by +ds,
//   - raises its Q launch arrival              -> Q-side slack changes by -ds.
// The balancing step equalizes a failing side against the other, but is
// clamped so it never drives a currently-passing side negative: useful skew
// must not create new violations while fixing old ones (the paper's flow
// uses it strictly to improve the worst slack of each new MBR).
double desired_step(double d_slack, double q_slack) {
  const bool has_d = d_slack != kNoRequired;
  const bool has_q = q_slack != kNoRequired;
  if (has_d && has_q) {
    if (d_slack >= 0 && q_slack >= 0) return 0.0;  // nothing to fix
    const double balance = (q_slack - d_slack) / 2;
    if (d_slack < 0 && q_slack > 0)
      return std::min(balance, q_slack);   // don't push Q below zero
    if (q_slack < 0 && d_slack > 0)
      return std::max(balance, -d_slack);  // don't push D below zero
    return balance;  // both failing: split the misery (improves WNS)
  }
  if (has_d) return d_slack < 0 ? -d_slack : 0.0;  // capture-only register
  if (has_q) return q_slack < 0 ? q_slack : 0.0;   // launch-only register
  return 0.0;
}

}  // namespace

UsefulSkewResult optimize_useful_skew(
    const netlist::Design& design, const TimingOptions& timing,
    const UsefulSkewOptions& options, const SkewMap& initial,
    const std::unordered_set<netlist::CellId>* allowed,
    TimingEngine* engine) {
  UsefulSkewResult result;
  result.skew = initial;

  // The iteration's STA is one full build followed by per-pass dirty-cone
  // repairs: only the cones of registers whose skew moved are recomputed.
  std::optional<TimingEngine> local;
  if (engine == nullptr) {
    local.emplace(design, timing);
    engine = &*local;
  }
  MBRC_ASSERT_MSG(&engine->design() == &design,
                  "useful skew engine bound to a different design");

  const auto registers = design.registers();
  const TimingReport* report = &engine->update(result.skew);

  for (int iter = 0; iter < options.iterations; ++iter) {
    bool changed = false;
    for (netlist::CellId reg : registers) {
      if (allowed && !allowed->contains(reg)) continue;
      const double d_slack = report->register_d_slack(design, reg);
      const double q_slack = report->register_q_slack(design, reg);
      double step = options.damping * desired_step(d_slack, q_slack);
      // Hold awareness: shifting the clock later raises this register's own
      // hold requirement (clamp by its D-side hold slack); shifting it
      // earlier launches min-paths earlier into the downstream captures
      // (clamp by the Q-side hold slack). Never *create* hold violations.
      if (step > 0) {
        const double d_hold = report->register_d_hold_slack(design, reg);
        if (d_hold != kNoRequired)
          step = std::min(
              step, std::max(0.0, (d_hold - options.hold_margin) / 2));
      } else if (step < 0) {
        const double q_hold = report->register_q_hold_slack(design, reg);
        if (q_hold != kNoRequired)
          step = std::max(
              step, -std::max(0.0, (q_hold - options.hold_margin) / 2));
      }
      if (std::abs(step) < 1e-9) continue;
      const double before =
          result.skew.contains(reg) ? result.skew.at(reg) : 0.0;
      const double after = std::clamp(before + step, -options.max_abs_skew,
                                      options.max_abs_skew);
      if (std::abs(after - before) > 1e-9) {
        result.skew[reg] = after;
        changed = true;
      }
    }
    ++result.iterations_run;
    if (!changed) break;
    report = &engine->update(result.skew);
  }

  static obs::Counter& c_calls = obs::counter("sta.useful_skew.calls");
  static obs::Counter& c_iters = obs::counter("sta.useful_skew.iterations");
  c_calls.add(1);
  c_iters.add(static_cast<std::int64_t>(result.iterations_run));
  return result;
}

}  // namespace mbrc::sta
