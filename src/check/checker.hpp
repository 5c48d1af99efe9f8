// Flow-integrity checking for the in-place composition flow.
//
// The flow mutates one Design across its stages (plan -> map/place/rewire
// -> legalize -> restitch -> skew -> size, then the optional bank/debank
// loop's split and commit rounds) with an incremental STA engine riding on
// an edit journal -- exactly the setup where a stale cache or a
// half-updated invariant corrupts results silently instead of crashing. DesignChecker validates the invariants each stage is
// supposed to preserve:
//
//   structure      every pin's net back-references it (driver/sink lists and
//                  pin.net agree, no duplicates), dead cells are fully
//                  disconnected, no zero-bit registers;
//   nets           no driverless signal net that still has sinks (a floating
//                  input is how a botched rewire shows up in STA as a
//                  silently-unconstrained cone);
//   placement      every live cell inside the core, on a legal row, and no
//                  two cells overlapping (x stays continuous: the legalizer
//                  packs cells abutted at arbitrary site offsets);
//   scan           per partition, the SO -> SI links form one acyclic chain
//                  covering every scan element exactly once, with ordered
//                  sections in (section, order) sequence;
//   conservation   connected register bits are conserved and the register
//                  count never grows across composition;
//   timing         the incremental engine's report is bit-identical to a
//                  fresh run_sta rebuild (the engine's core contract).
//
// Checks collect violations instead of throwing, so a fuzzer can report
// every broken invariant of a corrupted design at once; enforce_stage() is
// the throwing wrapper the flow uses at stage boundaries, gated by
// FlowOptions::check_level so release runs pay nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "place/legalizer.hpp"
#include "sta/sta.hpp"

namespace mbrc::sta {
class TimingEngine;
}

namespace mbrc::check {

/// How much flow-integrity checking run_composition_flow performs.
enum class CheckLevel {
  kOff,             // no checks (release default; zero cost)
  kStageBoundaries, // structural/placement/scan/conservation checks at every
                    // stage boundary
  kParanoid,        // kStageBoundaries plus engine-vs-run_sta bit-identity
                    // cross-validation at every boundary
};

const char* to_string(CheckLevel level);

struct Violation {
  std::string check;   // which invariant ("structure", "placement", ...)
  std::string detail;  // what broke, with ids/names
};

struct CheckReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// One line per violation, "check: detail".
  std::string to_string() const;
};

struct CheckerOptions {
  place::RowGridOptions grid;
  /// Slop for floating-point position comparisons (um).
  double position_tolerance = 1e-6;
};

/// Validates one design state. Each check_* appends violations to the
/// report; chain the ones the current flow stage guarantees.
class DesignChecker {
public:
  /// Conserved quantities captured before the flow starts mutating.
  struct Baseline {
    std::int64_t connected_register_bits = 0;
    std::int64_t register_count = 0;
  };
  static Baseline capture(const netlist::Design& design);

  explicit DesignChecker(const netlist::Design& design,
                         CheckerOptions options = {});

  /// Pin/net back-references, dead-cell disconnection, zero-bit registers.
  DesignChecker& check_structure();
  /// No non-clock net with sinks but no driver (floating inputs).
  DesignChecker& check_nets();
  /// Cells inside the core, row-aligned, overlap-free.
  DesignChecker& check_placement();
  /// Scan chains fully linked per partition, acyclic, section order kept.
  DesignChecker& check_scan_chains();
  /// Connected register bits conserved; when `require_count_bounded`, the
  /// register count must not exceed the baseline (true at the flow's input
  /// and output; mid-loop a debank split legitimately inflates the count
  /// until recomposition absorbs the pieces).
  DesignChecker& check_conservation(const Baseline& baseline,
                                    bool require_count_bounded = true);
  /// The incremental engine's report is bit-identical to a fresh run_sta.
  /// `engine` must be bound to this checker's design.
  DesignChecker& check_timing(sta::TimingEngine& engine,
                              const sta::SkewMap& skew);

  const CheckReport& report() const { return report_; }

private:
  void add(const char* check, std::string detail);

  const netlist::Design& design_;
  CheckerOptions options_;
  CheckReport report_;
};

/// Which invariants a given stage boundary guarantees. Mid-flow states
/// legitimately break some of them (e.g. scan chains are dangling between
/// rewiring and restitch), so the flow passes what the stage promises.
struct StageExpectations {
  bool placement_legal = true;
  bool scan_stitched = true;
  bool nets_clean = true;
  /// Register count <= baseline. False from the first debank split (which
  /// turns one MBR into more, narrower registers) to the output boundary,
  /// where the paper's no-increase guarantee holds again unless a debank
  /// iteration was kept.
  bool register_count_bounded = true;
};

/// Runs the checks `expect` warrants at `level` and throws
/// util::AssertionError naming `stage` on the first report with violations.
/// kParanoid adds the engine cross-validation (engine may be null to skip).
/// No-op at kOff.
void enforce_stage(const netlist::Design& design, const char* stage,
                   CheckLevel level, const StageExpectations& expect,
                   const DesignChecker::Baseline& baseline,
                   sta::TimingEngine* engine, const sta::SkewMap& skew,
                   const CheckerOptions& options = {});

}  // namespace mbrc::check
