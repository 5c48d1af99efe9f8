// End-to-end incremental MBR composition flow (the paper's Fig. 4):
//
//   placed design -> STA -> compatibility graph -> partition -> candidate
//   enumeration -> per-subgraph ILP (or greedy heuristic) -> mapping ->
//   placement LP -> rewiring -> incremental legalization -> scan re-stitch
//   -> useful skew on the new MBRs -> MBR sizing -> evaluation.
//
// Also exposes the evaluation harness that produces the Table 1 metrics
// for a design state (before/after).
#pragma once

#include <string>
#include <vector>

#include "check/checker.hpp"
#include "cts/cts.hpp"
#include "mbr/composition.hpp"
#include "mbr/cost.hpp"
#include "mbr/debank.hpp"
#include "mbr/heuristic.hpp"
#include "mbr/mapping.hpp"
#include "mbr/placement.hpp"
#include "mbr/rewire.hpp"
#include "obs/counters.hpp"
#include "obs/stage_store.hpp"
#include "obs/trace.hpp"
#include "place/legalizer.hpp"
#include "route/congestion.hpp"
#include "runtime/thread_pool.hpp"
#include "sta/useful_skew.hpp"

namespace mbrc::sta {
class TimingEngine;
}

namespace mbrc::mbr {

enum class Allocator { kIlp, kHeuristic };

struct FlowOptions {
  sta::TimingOptions timing;
  CompositionOptions composition;
  MappingOptions mapping;
  PlacementOptions placement;
  cts::CtsOptions cts;
  route::RouteOptions route;
  Allocator allocator = Allocator::kIlp;
  /// Multi-objective cost model (mbr/cost.hpp): alpha scales the paper's
  /// placement-aware timing weight, beta prices the created cell's power
  /// proxy, gamma its area. The defaults (1, 0, 0) reproduce the paper's
  /// pure Sec. 3.2 objective bit-exactly. The same knobs weigh the
  /// combined-cost accept test of the bank/debank loop below.
  CostModel cost;
  /// Iterate bank/debank until converged: after the initial composition,
  /// repeatedly split the most timing-critical MBRs back into narrow
  /// registers (mbr/debank.hpp), re-legalize them, offer them to scoped
  /// recomposition with fresh useful skew, and keep the iteration only if
  /// the combined cost (alpha*TNS + beta*power + gamma*area) improved and
  /// hold did not get worse. Monotone by construction: a non-improving
  /// iteration is rolled back via design snapshot/restore and ends the
  /// loop. Deterministic at any `jobs`.
  bool debank_loop = false;
  DebankOptions debank;
  bool apply_useful_skew = true;
  /// Useful skew is restricted to the newly composed MBRs (the paper's
  /// Fig. 4); set false to let every register move.
  bool skew_only_new_mbrs = true;
  sta::UsefulSkewOptions skew;
  /// Post-composition sizing: downsize each new MBR to the weakest drive
  /// variant that keeps its slacks non-negative.
  bool size_new_mbrs = true;
  /// Thread lanes for the parallel runtime (per-subgraph planning fan-out,
  /// levelized STA, overlapped evaluation). Results are bit-identical at
  /// any value; 1 runs the exact serial path. Defaults to the hardware
  /// thread count.
  int jobs = runtime::default_jobs();
  /// Flow-integrity checking (src/check): kOff costs nothing (release
  /// default); kStageBoundaries validates structural/placement/scan/
  /// conservation invariants after every flow stage; kParanoid additionally
  /// cross-validates the incremental timing engine against a fresh run_sta
  /// at each boundary. Violations throw util::AssertionError naming the
  /// first stage that broke an invariant.
  check::CheckLevel check_level = check::CheckLevel::kOff;
  /// Observability (DESIGN.md §11): when true, an obs::Tracer is installed
  /// for the duration of the run and FlowResult::trace holds the collected
  /// spans. When false (the default) every span probe in the flow is a
  /// single relaxed atomic load — zero-cost off.
  bool trace = false;
  /// When non-empty (and trace is on), the collected spans are also written
  /// here as Chrome trace_event JSON (Perfetto / chrome://tracing).
  std::string trace_path;
  /// When non-empty, a machine-readable flow_report.json (Table-1 metrics,
  /// stages, counters, options echo) is written here after the run.
  std::string report_path;
};

/// The Table 1 measurement set for one design state.
struct Metrics {
  netlist::DesignStats design;
  int composable_registers = 0;
  double wns = 0.0;
  double tns = 0.0;
  int failing_endpoints = 0;
  int total_endpoints = 0;
  double hold_wns = 0.0;
  int failing_hold_endpoints = 0;
  int clock_buffers = 0;      // CTS estimate (plus pre-existing buffers)
  double clock_cap = 0.0;     // fF, CTS estimate (sinks + buffers + wire)
  /// Dynamic clock power, P = C_clk * Vdd^2 * f (the clock toggles every
  /// cycle), in uW for fF * GHz * V^2. This is the paper's target metric.
  double clock_power_uw = 0.0;
  double leakage_nw = 0.0;    // sum of cell leakage
  double clock_wire = 0.0;    // um, CTS estimate
  double signal_wire = 0.0;   // um, HPWL of non-clock nets
  int overflow_edges = 0;
  double max_congestion = 0.0;
};

struct FlowResult {
  Metrics before;
  Metrics after;
  int mbrs_created = 0;
  int registers_merged = 0;      // members absorbed into new MBRs
  int rejected_at_mapping = 0;   // selections dropped by Sec. 4.1 rules
  int incomplete_mbrs = 0;
  /// One entry per bank/debank loop iteration (debank_loop only). The cost
  /// fields are part of the deterministic output contract; `accepted` tells
  /// whether the iteration's state was kept or rolled back (a rejected
  /// iteration is always the last).
  struct DebankIteration {
    int banks_split = 0;
    int pieces_created = 0;
    int mbrs_created = 0;       // MBRs recomposed from the freed pieces
    double cost_before = 0.0;   // combined cost entering the iteration
    double cost_after = 0.0;    // combined cost of the iteration's state
    double tns = 0.0;           // TNS of the iteration's state (kept or not)
    double clock_power_uw = 0.0;
    double area = 0.0;
    bool accepted = false;
  };
  std::vector<DebankIteration> debank_iterations;
  /// Combined cost (FlowOptions::cost) of the final design state; with the
  /// loop on this is the minimum over all accepted iterations.
  double final_cost = 0.0;
  place::LegalizeResult legalization;
  RestitchStats restitch;
  sta::SkewMap skew;
  double compose_seconds = 0.0;  // plan + map + place + rewire + legalize
  double total_seconds = 0.0;
  /// Per-stage wall times and work counts (obs::StageTimer probes); rows
  /// of the bank/debank iterations carry a "debank." prefix. Measurement
  /// only: stage timings vary run to run and are excluded from the
  /// deterministic-output contract.
  obs::StageTable stages;
  /// Work counts accumulated during this run (delta over the obs counter
  /// registry: solver nodes, simplex iterations, repair-cone sizes, cliques
  /// enumerated, ...). Deterministic output: bit-identical at any `jobs`
  /// value (tests/parallel_flow_test.cpp).
  obs::CountersSnapshot counters;
  /// Collected spans when FlowOptions::trace was on; empty otherwise.
  /// Wall-clock measurement only, like `stages`.
  obs::TraceData trace;
  CompositionPlan plan;          // the accepted plan (for reporting)
};

/// Measures a design state with the flow's substrates. `skew` is applied
/// during STA (pass the flow's resulting skew for 'after' measurements).
/// When `engine` is non-null (it must be bound to `design`), the timing
/// metrics come from an incremental engine update instead of a from-scratch
/// run; the numbers are bit-identical either way.
Metrics evaluate_design(const netlist::Design& design,
                        const FlowOptions& options,
                        const sta::SkewMap& skew = {},
                        sta::TimingEngine* engine = nullptr);

/// Post-composition sizing pass (FlowOptions::size_new_mbrs): moves each
/// cell in `new_cells` to the weakest drive variant whose Q-side setup and
/// hold slacks stay acceptable under `skew`. The report is re-queried from
/// `engine` after every swap so each decision sees the slack changes earlier
/// swaps caused (dirty-cone repair keeps the re-query cheap). Sizing is
/// placement-aware: a wider variant is skipped unless the extra sites next
/// to the cell are free, so the placement stays legal without any post-hoc
/// move that would invalidate the measured slacks. Exposed for targeted
/// regression testing.
void size_new_mbrs(netlist::Design& design,
                   const std::vector<netlist::CellId>& new_cells,
                   const sta::SkewMap& skew, sta::TimingEngine& engine);

/// Runs the full incremental composition flow, mutating `design`.
FlowResult run_composition_flow(netlist::Design& design,
                                const FlowOptions& options = {});

}  // namespace mbrc::mbr
