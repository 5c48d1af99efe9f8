// Correctness gates. They run outside every timed interval; a tripped gate
// counts as a failed operation in `error_rate`.
#pragma once

#include <cstdint>
#include <string_view>

#include "check/checker.hpp"
#include "mbr/flow.hpp"

namespace mbrcbench {

/// Audits a composed design: structure, nets, placement, scan chains, and
/// conservation against the input's baseline (connected bits kept, register
/// count not above the input's).
mbrc::check::CheckReport check_flow_output(
    const mbrc::netlist::Design& design,
    const mbrc::check::DesignChecker::Baseline& baseline);

/// Digest of a plan's objective and selections (member cell ids in order).
std::uint64_t plan_digest(const mbrc::mbr::CompositionPlan& plan);
/// Digest of every Table-1 field of a design state.
std::uint64_t metrics_digest(const mbrc::mbr::Metrics& metrics);
/// The deterministic part of a flow result: work counters, the `after`
/// metrics and the plan. Identical across repetitions and `jobs` values.
std::uint64_t flow_digest(const mbrc::mbr::FlowResult& result);

/// Tallies service responses: every response is an attempted operation and
/// any response without `"ok":true` a failed one.
struct ResponseTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Returns whether the response was ok.
  bool score(std::string_view response);
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }
};

}  // namespace mbrcbench
