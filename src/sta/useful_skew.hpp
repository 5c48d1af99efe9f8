// Useful-skew assignment (Fishburn-style iterative relaxation).
//
// Each register gets a clock arrival offset. Shifting a register's clock
// later by `s` improves the slack of paths ending at its D pins by `+s` and
// degrades the slack of paths launched from its Q pins by `-s`; the iteration
// therefore moves every register's skew toward the point that balances its
// worst D-side and Q-side slacks, re-running STA between passes.
//
// In the paper's flow (Fig. 4), useful skew is applied after MBR composition;
// because composition only merged timing-compatible registers (similar D/Q
// slacks), a single offset per MBR still fits every merged bit -- that is
// precisely the property the timing-compatibility rule protects.
#pragma once

#include <optional>
#include <unordered_set>

#include "sta/sta.hpp"

namespace mbrc::sta {

class TimingEngine;

struct UsefulSkewOptions {
  int iterations = 8;
  double max_abs_skew = 0.25;  // ns, |skew| bound per register
  double damping = 0.7;        // fraction of the balancing step applied
  /// Hold protection: each step consumes at most half of the relevant hold
  /// slack minus this margin (ns). Both ends of a min-path may move in the
  /// same iteration, so a full-budget step could overshoot; halving makes
  /// the combined move safe and the iteration re-splits what remains.
  double hold_margin = 0.005;
};

struct UsefulSkewResult {
  SkewMap skew;
  int iterations_run = 0;
};

/// Optimizes per-register skews starting from `initial`. When `allowed` is
/// non-null, only those registers may receive a (new) skew; others keep
/// their initial value.
///
/// The per-iteration STA runs through `engine` when one is supplied (it
/// must be bound to `design`); each pass then costs only a dirty-cone
/// repair of the registers whose skew moved, and the engine stays warm for
/// the caller's next query. Without an engine a private one is used, so the
/// loop is still one full build + N incremental repairs. Results are
/// bit-identical either way.
UsefulSkewResult optimize_useful_skew(
    const netlist::Design& design, const TimingOptions& timing,
    const UsefulSkewOptions& options, const SkewMap& initial = {},
    const std::unordered_set<netlist::CellId>* allowed = nullptr,
    TimingEngine* engine = nullptr);

}  // namespace mbrc::sta
