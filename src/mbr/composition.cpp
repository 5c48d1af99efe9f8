#include "mbr/composition.hpp"

#include <algorithm>

#include "mbr/heuristic.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

std::vector<const Selection*> CompositionPlan::merges() const {
  std::vector<const Selection*> out;
  for (const Selection& s : selections)
    if (s.candidate.nodes.size() >= 2) out.push_back(&s);
  return out;
}

ilp::SetPartitionResult solve_subgraph(
    const std::vector<int>& subgraph, const std::vector<Candidate>& candidates,
    const ilp::SetPartitionOptions& options) {
  // Map graph node ids to dense element ids. partition_graph hands out each
  // subgraph sorted ascending, so the dense id is the node's rank.
  const auto element_of = [&](int node) {
    const auto it = std::lower_bound(subgraph.begin(), subgraph.end(), node);
    MBRC_ASSERT_MSG(it != subgraph.end() && *it == node,
                    "candidate references node outside its subgraph");
    return static_cast<int>(it - subgraph.begin());
  };

  ilp::SetPartitionProblem problem;
  problem.element_count = static_cast<int>(subgraph.size());
  problem.candidates.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    ilp::SetPartitionCandidate spc;
    spc.weight = c.weight;
    spc.elements.reserve(c.nodes.size());
    for (int node : c.nodes) spc.elements.push_back(element_of(node));
    problem.candidates.push_back(std::move(spc));
  }
  return ilp::solve_set_partition(problem, options);
}

namespace {

// The ILP step: enumerate the subgraph's candidates and solve its
// set-partitioning ILP. Only the chosen candidates leave the task.
SubgraphPlan allocate_ilp(const CompatibilityGraph& graph,
                          const lib::Library& library,
                          const BlockerIndex& blockers,
                          const std::vector<int>& subgraph,
                          const CompositionOptions& options) {
  EnumerationResult enumeration = enumerate_candidates(
      graph, library, blockers, subgraph, options.enumeration);
  const ilp::SetPartitionResult solved =
      solve_subgraph(subgraph, enumeration.candidates, options.solver);
  MBRC_ASSERT_MSG(solved.feasible,
                  "subgraph ILP infeasible despite singleton candidates");

  SubgraphPlan out;
  out.candidate_count =
      static_cast<std::int64_t>(enumeration.candidates.size());
  out.ilp_nodes = solved.nodes_explored;
  out.objective = solved.objective;
  out.truncated = enumeration.truncated;
  for (int index : solved.chosen)
    out.chosen.push_back(std::move(enumeration.candidates[index]));
  return out;
}

// plan_on_graph over a freshly built graph; every register when `region`
// is null.
CompositionPlan plan_fresh(const netlist::Design& design,
                           const sta::TimingReport& timing,
                           const std::vector<netlist::CellId>* region,
                           const CompositionOptions& options) {
  CompatibilityGraph graph =
      build_compatibility_graph(design, timing, compatibility_with_jobs(options));
  std::optional<std::vector<int>> nodes;
  if (region != nullptr) nodes = region_nodes(graph, *region);
  CompositionPlan plan =
      plan_on_graph(graph, BlockerIndex(graph), design, nodes, options);
  plan.graph = std::move(graph);
  return plan;
}

}  // namespace

CompatibilityOptions compatibility_with_jobs(const CompositionOptions& options) {
  CompatibilityOptions compatibility = options.compatibility;
  compatibility.jobs = options.jobs;
  return compatibility;
}

std::vector<int> region_nodes(const CompatibilityGraph& graph,
                              const std::vector<netlist::CellId>& cells) {
  const std::vector<RegisterInfo>& nodes = graph.nodes();
  std::vector<int> out;
  out.reserve(cells.size());
  for (netlist::CellId cell : cells) {
    const auto it = std::lower_bound(
        nodes.begin(), nodes.end(), cell,
        [](const RegisterInfo& n, netlist::CellId c) { return n.cell < c; });
    if (it != nodes.end() && it->cell == cell)
      out.push_back(static_cast<int>(it - nodes.begin()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CompositionPlan plan_on_graph(const CompatibilityGraph& graph,
                              const BlockerIndex& blockers,
                              const netlist::Design& design,
                              const std::optional<std::vector<int>>& region,
                              const CompositionOptions& options) {
  check_partition_options(options.partition);  // before any worker task
  std::vector<std::vector<int>> subgraphs;
  for (std::vector<int>& component :
       region ? graph.components_of(*region) : graph.connected_components()) {
    for (std::vector<int>& part : partition_component(
             graph, design, std::move(component), options.partition)) {
      // partition_component hands each part out sorted.
      const bool keep =
          !region || std::any_of(part.begin(), part.end(), [&](int node) {
            return std::binary_search(region->begin(), region->end(), node);
          });
      if (keep) subgraphs.push_back(std::move(part));
    }
  }

  CompositionPlan plan;
  plan.subgraph_count = static_cast<int>(subgraphs.size());

  // Per-subgraph fan-out: one allocation step per subgraph, each writing its
  // own pre-sized slot. The reduction below runs on this thread in subgraph
  // order, so the plan is identical to the serial loop at any job count.
  std::vector<SubgraphPlan> outcomes = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, subgraphs,
      [&](const std::vector<int>& subgraph) {
        obs::Span span("plan.subgraph");
        return options.allocator == Allocator::kIlp
                   ? allocate_ilp(graph, design.library(), blockers, subgraph,
                                  options)
                   : allocate_greedy(graph, design.library(), subgraph,
                                     options.enumeration.cost);
      });

  for (SubgraphPlan& outcome : outcomes) {
    plan.candidate_count += outcome.candidate_count;
    plan.ilp_nodes += outcome.ilp_nodes;
    plan.objective += outcome.objective;
    if (outcome.truncated) ++plan.truncated_subgraphs;
    for (Candidate& candidate : outcome.chosen) {
      Selection selection;
      for (int node : candidate.nodes)
        selection.members.push_back(graph.node(node).cell);
      selection.candidate = std::move(candidate);
      plan.selections.push_back(std::move(selection));
    }
  }

  // Deterministic order: by first member cell id.
  std::sort(plan.selections.begin(), plan.selections.end(),
            [](const Selection& a, const Selection& b) {
              return a.members.front() < b.members.front();
            });
  return plan;
}

CompositionPlan plan_composition(const netlist::Design& design,
                                 const sta::TimingReport& timing,
                                 const CompositionOptions& options) {
  return plan_fresh(design, timing, nullptr, options);
}

CompositionPlan plan_composition_region(
    const netlist::Design& design, const sta::TimingReport& timing,
    const std::vector<netlist::CellId>& region,
    const CompositionOptions& options) {
  return plan_fresh(design, timing, &region, options);
}

}  // namespace mbrc::mbr
