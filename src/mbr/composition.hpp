// MBR allocation: the weighted set-partitioning ILP of Sec. 3.1.
//
// Per compatibility subgraph, every composable register must end up in
// exactly one selected candidate (possibly its own singleton), and the
// selection minimizes the sum of the placement-aware weights. Subgraphs are
// independent, so the global optimum is the union of per-subgraph optima.
// The Fig. 6 greedy baseline (mbr/heuristic.hpp) is the other allocator;
// one planner serves both, so they always see the same subgraphs.
#pragma once

#include <optional>
#include <vector>

#include "ilp/set_partition.hpp"
#include "mbr/candidates.hpp"
#include "mbr/cliques.hpp"
#include "mbr/compatibility.hpp"

namespace mbrc::mbr {

/// The per-subgraph allocation step of plan_on_graph.
enum class Allocator {
  kIlp,        // enumerate_candidates + solve_subgraph (Sec. 3.1)
  kHeuristic,  // maximal cliques + trim + greedy commit (Fig. 6 baseline)
};

struct CompositionOptions {
  /// Every plan under these options (main pass, debank, service) uses it.
  Allocator allocator = Allocator::kIlp;
  CompatibilityOptions compatibility;
  PartitionOptions partition;
  EnumerationOptions enumeration;
  ilp::SetPartitionOptions solver;
  /// Thread lanes for the per-subgraph fan-out (one allocation step per
  /// subgraph). Subgraphs are independent and the reduction into the plan
  /// happens in subgraph order on the calling thread, so the plan --
  /// selections, objective, node counts -- is identical at any job count;
  /// 1 runs the serial loop.
  int jobs = 1;
};

/// options.compatibility with the flow-wide jobs knob, which also drives
/// the compatibility-graph fan-out.
CompatibilityOptions compatibility_with_jobs(const CompositionOptions& options);

/// One selected MBR (or kept singleton) after allocation.
struct Selection {
  Candidate candidate;
  std::vector<netlist::CellId> members;  // resolved from candidate.nodes
};

/// One subgraph's allocation, as a per-subgraph step hands it to the
/// planner's reduction. The heuristic counts maximal cliques as candidates
/// and reports no objective, nodes or truncation.
struct SubgraphPlan {
  std::vector<Candidate> chosen;
  std::int64_t candidate_count = 0;
  std::int64_t ilp_nodes = 0;
  double objective = 0.0;
  bool truncated = false;
};

struct CompositionPlan {
  /// The graph the plan was made on, for apply; only plan_composition and
  /// plan_composition_region fill it. plan_on_graph leaves it empty.
  CompatibilityGraph graph;
  std::vector<Selection> selections;   // all, including kept singletons
  double objective = 0.0;              // sum of selected weights (ILP only)
  int subgraph_count = 0;
  std::int64_t candidate_count = 0;
  std::int64_t ilp_nodes = 0;          // branch & bound nodes over all subgraphs
  int truncated_subgraphs = 0;

  /// Selections that actually merge two or more registers.
  std::vector<const Selection*> merges() const;
  /// Final register count implied by the plan (each selection is one cell).
  int planned_register_count() const {
    return static_cast<int>(selections.size());
  }
};

/// The one planner. Partitions the connected components of `graph` (the
/// components holding a node of `region`, or every component when `region`
/// is absent) and runs options.allocator's step on each subgraph. With
/// a region, only the subgraphs holding a region node are planned: the
/// others are independent and their plan would be the same as before.
/// Components are visited in ascending order of their smallest node, as
/// CompatibilityGraph::components_of lists them, so the objective's
/// floating-point sum has the same order as a whole-graph plan's. The ILP
/// step counts blockers against every node of `graph` through `blockers`. The
/// returned plan's `graph` stays empty: selections name their cells
/// through Selection::members, and callers that apply the plan pass the
/// graph along themselves. `region` holds node ids, sorted and unique.
CompositionPlan plan_on_graph(const CompatibilityGraph& graph,
                              const BlockerIndex& blockers,
                              const netlist::Design& design,
                              const std::optional<std::vector<int>>& region,
                              const CompositionOptions& options);

/// The graph nodes of `cells`, sorted and unique; cells that are not nodes
/// (not composable) are skipped. Requires the graph's nodes in ascending
/// cell order, as build_compatibility_graph creates them.
std::vector<int> region_nodes(const CompatibilityGraph& graph,
                              const std::vector<netlist::CellId>& cells);

/// plan_on_graph over a freshly built graph, planning every register. Does
/// not modify the design; the plan carries the graph for apply. The flow
/// and the service session plan on a kept IncrementalCompatibilityGraph
/// instead; this is the fresh-build reference their plans must equal.
CompositionPlan plan_composition(const netlist::Design& design,
                                 const sta::TimingReport& timing,
                                 const CompositionOptions& options = {});

/// plan_composition, planning only the subgraphs that hold a cell of
/// `region`. Within them the plan is identical to the full plan's. Building
/// the graph costs O(design) whatever the region.
CompositionPlan plan_composition_region(
    const netlist::Design& design, const sta::TimingReport& timing,
    const std::vector<netlist::CellId>& region,
    const CompositionOptions& options = {});

/// Solves one subgraph's ILP given its enumerated candidates; exposed for
/// tests (cross-validation against exhaustive enumeration) and for the
/// worked-example bench.
ilp::SetPartitionResult solve_subgraph(
    const std::vector<int>& subgraph, const std::vector<Candidate>& candidates,
    const ilp::SetPartitionOptions& options = {});

}  // namespace mbrc::mbr
