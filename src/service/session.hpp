// One open design inside the composition service.
//
// A Session owns the mutable state the daemon multiplexes: the placed
// netlist, a persistent incremental TimingEngine riding on the design's
// edit journal (it owns the per-register useful-skew map and journals skew
// edits the same way), named snapshots for
// rollback, and the flow-integrity checker's conservation baseline. All
// methods must be called from one thread at a time (the daemon serializes a
// session's requests on a strand); distinct sessions are independent and may
// run concurrently.
//
// Determinism contract: every method is a pure function of the session's
// edit history. Timing queries are answered by dirty-cone repair and are
// bit-identical to a from-scratch run_sta after the same edits (the
// TimingEngine contract), so a recorded request stream replayed through the
// daemon at any `jobs` count yields byte-identical responses per session
// (tests/service_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "mbr/composition.hpp"
#include "mbr/incremental_graph.hpp"
#include "netlist/design.hpp"
#include "sta/timing_engine.hpp"

namespace mbrc::service {

struct SessionOptions {
  sta::TimingOptions timing;  // jobs stays 1: parallelism lives across sessions
  mbr::CompositionOptions composition;
  /// Flow-integrity checking per request: kOff is free; kStageBoundaries
  /// validates structure/nets/conservation after every apply_edits batch;
  /// kParanoid additionally cross-validates the incremental engine against
  /// a fresh run_sta on every timing query.
  check::CheckLevel check_level = check::CheckLevel::kOff;
  /// Snapshots retained per session (each is a full design copy).
  std::size_t max_snapshots = 64;
};

/// One batched edit. `op` selects which of the remaining fields apply.
struct Edit {
  enum class Op { kMove, kSwap, kSkew };
  Op op = Op::kMove;
  netlist::CellId cell;
  double x = 0.0, y = 0.0;     // kMove
  std::string variant;         // kSwap: library register cell name
  double skew = 0.0;           // kSkew
  bool clear_skew = false;     // kSkew: erase the register's entry instead
};

struct EditOutcome {
  int applied = 0;             // edits applied before the first failure
  std::string error;           // empty on success
  int error_index = -1;        // index of the failing edit
  std::uint64_t topology_version = 0;
  std::size_t journal_length = 0;
  /// True when `error` came from the post-edit design checker (as opposed
  /// to a rejected edit): the daemon dumps the flight recorder on these.
  bool check_failed = false;

  bool ok() const { return error.empty(); }
};

struct TimingQuery {
  std::vector<netlist::PinId> pins;        // per-pin slack requests
  std::vector<netlist::CellId> registers;  // per-register D/Q slack requests
};

struct TimingAnswer {
  std::string error;  // non-empty when the query referenced a bad id
  /// True when `error` came from the paranoid engine cross-check rather
  /// than a bad id; triggers a flight-recorder dump in the daemon.
  bool check_failed = false;
  double wns = 0.0;
  double tns = 0.0;
  int failing_endpoints = 0;
  int total_endpoints = 0;
  double hold_wns = 0.0;
  struct PinSlack {
    netlist::PinId pin;
    double slack = 0.0;
    double hold_slack = 0.0;
  };
  std::vector<PinSlack> pins;
  struct RegisterSlack {
    netlist::CellId cell;
    double d_slack = 0.0;
    double q_slack = 0.0;
  };
  std::vector<RegisterSlack> registers;
  // Engine observability: proves queries are served incrementally
  // (full_builds stays at 1 until a structural edit or rollback).
  std::uint64_t full_builds = 0;
  std::uint64_t incremental_updates = 0;
  std::size_t repaired_pins = 0;

  bool ok() const { return error.empty(); }
};

struct RecomposeAnswer {
  std::string error;
  int region_registers = 0;   // registers the region resolved to
  int subgraphs = 0;          // touched subgraphs re-planned
  std::int64_t candidates = 0;
  std::int64_t ilp_nodes = 0;
  int planned_mbrs = 0;       // selections merging >= 2 registers
  int merged_registers = 0;   // members absorbed by those selections
  double objective = 0.0;

  bool ok() const { return error.empty(); }
};

class Session {
public:
  /// Takes ownership of `design` (which must reference `library`).
  Session(const lib::Library& library, netlist::Design design,
          SessionOptions options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const netlist::Design& design() const { return design_; }
  const SessionOptions& options() const { return options_; }

  /// Applies a batch in order; stops at the first invalid edit (earlier
  /// edits stay applied -- use snapshot/rollback for atomic batches).
  EditOutcome apply(const std::vector<Edit>& edits);

  /// Brings the engine in sync (dirty-cone repair; full rebuild only after
  /// structural edits or rollback) and answers the query.
  TimingAnswer query(const TimingQuery& query);

  /// Re-runs candidate enumeration + ILP planning on the subgraphs touched
  /// by `region` (explicit register ids), or, when `region` is empty, by
  /// every register edited since the last implicit recompose (that set is
  /// consumed). Planning only: the design is not modified. `cost`, when
  /// present, overrides the session's multi-objective cost knobs
  /// (alpha/beta/gamma, mbr/cost.hpp) for this request only. The plan runs
  /// on the session's incremental compatibility graph, so its cost follows
  /// the region and the edits since the last recompose, not the design; it
  /// equals plan_composition_region on a fresh run_sta report.
  RecomposeAnswer recompose(const std::vector<netlist::CellId>& region,
                            const std::optional<mbr::CostModel>& cost = {});

  /// Runs the design checker now (structure, nets, scan, conservation; the
  /// engine cross-check at kParanoid) regardless of options().check_level.
  /// Placement legality is opt-in via `include_placement` because service
  /// edits are raw placement moves (row legality is the batch legalizer's
  /// contract); operators can still request the full audit.
  check::CheckReport check(bool include_placement = false);

  struct SnapshotOutcome {
    std::string error;
    std::size_t snapshot_count = 0;
    bool ok() const { return error.empty(); }
  };
  SnapshotOutcome snapshot(const std::string& name);
  /// Restores design, skew map and touched-set to the named snapshot. The
  /// snapshot is retained (rolling back repeatedly is allowed).
  SnapshotOutcome rollback(const std::string& name);

  // Telemetry accessors for the daemon's stats verb (read on the strand,
  // published to the stats snapshot through atomic gauges).
  std::size_t journal_length() const { return design_.touched_cells().size(); }
  std::size_t snapshot_count() const { return snapshots_.size(); }
  const sta::TimingEngine::Stats& engine_stats() const {
    return engine_.stats();
  }
  const mbr::IncrementalCompatibilityGraph::Stats& compat_stats() const {
    return graph_.stats();
  }
  /// The compatibility graph as of the last recompose (empty before it).
  const mbr::CompatibilityGraph& compat_graph() const { return graph_.graph(); }

private:
  std::string validate(const Edit& edit) const;  // empty when applicable
  void apply_one(const Edit& edit);
  void note_touched(netlist::CellId cell);

  const lib::Library& library_;
  netlist::Design design_;
  SessionOptions options_;
  sta::TimingEngine engine_;
  /// Kept in sync from the edit journal and engine_'s change log on each
  /// recompose; rebuilt after a rollback.
  mbr::IncrementalCompatibilityGraph graph_;
  /// Registers edited since the last implicit recompose, ordered by id
  /// (deterministic region resolution).
  std::set<netlist::CellId> touched_;
  struct Saved {
    netlist::Design::Snapshot design;
    sta::SkewMap skew;
    std::set<netlist::CellId> touched;
  };
  std::map<std::string, Saved> snapshots_;
  check::DesignChecker::Baseline baseline_;
};

}  // namespace mbrc::service
