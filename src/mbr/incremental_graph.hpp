// A compatibility graph kept in sync with an edited design (DESIGN.md §12.1).
//
// build_compatibility_graph costs O(design): every composable register gets
// a RegisterInfo and a bin probe. A service session plans small regions
// again and again on one design, so it keeps one graph and re-derives only
// what its edits invalidated. The batch flow holds one the same way; its
// passes follow structural edits, so each of its syncs is a full build.
// Two logs say what an edit invalidated:
//   - the Design edit journal (touched_cells), read with this graph's own
//     cursor: placement moves and sizing swaps;
//   - the TimingEngine change log (changed_pins): every pin whose arrival or
//     required time moved in an incremental repair.
//
// A register's RegisterInfo reads its own cell (footprint, library cell),
// the slacks of its D/Q/SI/SO pins, and the positions of the other pins on
// the nets of those data pins. Its signature (function, clock, gating,
// control nets, scan partition) changes only with a structural edit. So a
// register is dirty exactly when
//   1. it was moved or swapped,
//   2. a moved or swapped cell has a pin on the net of one of its data pins,
//   3. one of its data pins is in the engine's change log.
// Dirty registers get a new RegisterInfo, move in the pair and blocker
// indexes and drop their edges; CompatibilityGraph::derive_edges, the
// routine a fresh build runs on every node, then probes their 3x3 bin
// blocks again. An edge depends only on its two endpoints' infos, and the
// probe is symmetric, so the result equals a fresh
// build_compatibility_graph node for node and edge for edge. The node set
// itself changes only with the topology.
//
// Invalidation follows the engine's rule: when the design's topology
// version moves (structural edits, snapshot restore) or the engine did a
// full build, the graph is rebuilt from scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mbr/candidates.hpp"
#include "mbr/compatibility.hpp"
#include "sta/timing_engine.hpp"

namespace mbrc::mbr {

class IncrementalCompatibilityGraph {
public:
  /// Binds the graph to `design` (which must outlive it). Nothing is built
  /// until the first sync().
  IncrementalCompatibilityGraph(const netlist::Design& design,
                                const CompatibilityOptions& options);

  /// Brings the graph in sync with the design and `engine`'s report. The
  /// engine must be bound to the same design and updated after its last
  /// edit. Drains the engine's change log.
  void sync(sta::TimingEngine& engine);

  /// The graph as of the last sync(). Node ids are in ascending cell order,
  /// as build_compatibility_graph assigns them.
  const CompatibilityGraph& graph() const { return graph_; }
  /// Blocker counts against every node of graph().
  const BlockerIndex& blockers() const { return *blockers_; }

  /// Observability: the same quantities flow into the obs registry
  /// (mbr.compat.*) once per sync().
  struct Stats {
    std::uint64_t full_builds = 0;
    std::uint64_t incremental_updates = 0;
    /// Registers re-derived by the last incremental update.
    std::size_t last_dirty_registers = 0;
  };
  const Stats& stats() const { return stats_; }

private:
  void rebuild(const sta::TimingReport& report);
  std::vector<int> dirty_nodes(const sta::TimingEngine& engine);
  void refresh(const sta::TimingReport& report, const std::vector<int>& dirty);

  const netlist::Design& design_;
  const CompatibilityOptions options_;

  bool built_ = false;
  std::uint64_t seen_topology_ = 0;
  std::uint64_t seen_full_builds_ = 0;
  std::size_t journal_cursor_ = 0;

  CompatibilityGraph graph_;
  PairIndex pairs_;
  std::optional<BlockerIndex> blockers_;
  std::vector<int> node_of_cell_;      // cell index -> node, -1 if none
  std::vector<std::uint8_t> data_net_; // net holds a node's data pin
  std::vector<std::uint8_t> dirty_;    // per node, set only inside sync()
  NodeScratch scratch_;                // derive_edges, kept across syncs

  Stats stats_;
};

}  // namespace mbrc::mbr
