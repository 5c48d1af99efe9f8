#include "mbr/heuristic.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

// Trims a maximal clique to the widest library width that fits, dropping
// the member farthest from the clique centroid whenever the bit count has
// no library cell or the common feasible region is empty. Returns the
// trimmed member list (may end up a singleton).
std::vector<int> trim_to_width(const CompatibilityGraph& graph,
                               const std::vector<int>& widths,
                               std::vector<int> members) {
  while (members.size() >= 2) {
    int bits = 0;
    geom::Rect region = geom::Rect::universe();
    geom::Point centroid{0, 0};
    for (int m : members) {
      bits += graph.node(m).bits;
      region = region.intersect(graph.node(m).region);
      centroid = centroid + graph.node(m).center();
    }
    centroid = centroid * (1.0 / static_cast<double>(members.size()));

    if (std::binary_search(widths.begin(), widths.end(), bits) &&
        !region.is_empty())
      return members;

    std::size_t worst = 0;
    double worst_dist = -1.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double d =
          geom::manhattan(centroid, graph.node(members[i]).center());
      if (d > worst_dist) {
        worst_dist = d;
        worst = i;
      }
    }
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(worst));
  }
  return members;
}

}  // namespace

CompositionPlan plan_composition_heuristic(const netlist::Design& design,
                                           const sta::TimingReport& timing,
                                           const CompositionOptions& options) {
  CompositionPlan plan;
  // The flow-wide jobs knob also drives the compatibility-graph fan-out.
  CompatibilityOptions compatibility = options.compatibility;
  compatibility.jobs = options.jobs;
  plan.graph = build_compatibility_graph(design, timing, compatibility);

  const auto subgraphs = partition_graph(plan.graph, design, options.partition);
  plan.subgraph_count = static_cast<int>(subgraphs.size());

  // Per-subgraph fan-out (Bron-Kerbosch + trim + greedy commit per task,
  // each into its own slot); the appends below run in subgraph order, so
  // the plan matches the serial loop at any job count.
  struct SubgraphOutcome {
    std::int64_t clique_count = 0;
    std::vector<Selection> selections;
  };
  std::vector<SubgraphOutcome> outcomes = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, subgraphs,
      [&](const std::vector<int>& subgraph) {
    obs::Span span("plan.subgraph");
    SubgraphOutcome outcome;
    if (subgraph.empty()) return outcome;
    const std::vector<int>& widths = design.library().available_widths(
        plan.graph.node(subgraph.front()).lib_cell->function);

    // Single pass, as in the refs-[8]/[12] style baseline: identify the
    // maximal cliques, map each to the widest fitting library cell by
    // trimming its farthest members, then commit greedily (most bits
    // first). Leftover members of overlapping cliques strand as singletons
    // -- exactly the fragmentation the exact ILP avoids.
    const auto cliques = maximal_cliques(plan.graph, subgraph);
    outcome.clique_count = static_cast<std::int64_t>(cliques.size());

    struct Mapped {
      std::vector<int> nodes;
      int bits = 0;
      double spread = 0.0;
    };
    const CostModel& cost = options.enumeration.cost;
    const lib::RegisterFunction function =
        plan.graph.node(subgraph.front()).lib_cell->function;

    std::vector<Mapped> mapped;
    mapped.reserve(cliques.size());
    for (const auto& clique : cliques) {
      auto trimmed = trim_to_width(plan.graph, widths, clique);
      if (trimmed.size() < 2) continue;
      Mapped m;
      m.bits = 0;
      geom::Rect bbox = geom::Rect::empty();
      for (int node : trimmed) {
        m.bits += plan.graph.node(node).bits;
        bbox = bbox.unite(plan.graph.node(node).footprint);
      }
      // Multi-objective gate (mbr/cost.hpp): refuse a merge whose created
      // cell prices worse than the member cells it replaces. With the
      // default model (beta = gamma = 0) both sides are zero and every
      // merge passes, reproducing the plain greedy baseline.
      if (cost.multi_objective()) {
        const lib::RegisterCell* merged =
            design.library().cheapest_cell(function, m.bits);
        // Per-clique fold, serial within this task (not a cross-task
        // reduction, so the order is fixed and deterministic).
        const double replaced = std::accumulate(
            trimmed.begin(), trimmed.end(), 0.0,
            [&](double sum, int node) {
              return sum + cost.cell_cost(*plan.graph.node(node).lib_cell);
            });
        if (merged == nullptr || cost.cell_cost(*merged) >= replaced)
          continue;
      }
      m.spread = bbox.half_perimeter();
      m.nodes = std::move(trimmed);
      mapped.push_back(std::move(m));
    }
    std::sort(mapped.begin(), mapped.end(), [](const Mapped& a,
                                               const Mapped& b) {
      if (a.bits != b.bits) return a.bits > b.bits;
      if (a.spread != b.spread) return a.spread < b.spread;
      return a.nodes < b.nodes;
    });

    std::vector<bool> used(plan.graph.node_count(), false);
    for (const Mapped& m : mapped) {
      bool free_nodes = true;
      for (int node : m.nodes)
        if (used[node]) {
          free_nodes = false;
          break;
        }
      if (!free_nodes) continue;

      geom::Rect region = geom::Rect::universe();
      for (int node : m.nodes)
        region = region.intersect(plan.graph.node(node).region);

      Selection selection;
      selection.candidate.nodes = m.nodes;
      selection.candidate.bits = m.bits;
      selection.candidate.mapped_width = m.bits;
      // The greedy baseline has no placement-aware weight (that is the
      // ILP's edge); price the created cell so the reported objective is
      // comparable across allocators under one cost model.
      selection.candidate.weight = cost.candidate_cost(
          1.0, design.library().cheapest_cell(function, m.bits));
      selection.candidate.needs_per_bit_scan =
          candidate_needs_per_bit_scan(plan.graph, m.nodes);
      selection.candidate.common_region = region;
      for (int node : m.nodes) {
        used[node] = true;
        selection.members.push_back(plan.graph.node(node).cell);
      }
      outcome.selections.push_back(std::move(selection));
    }

    for (int node : subgraph) {
      if (used[node]) continue;
      Selection selection;
      selection.candidate.nodes = {node};
      selection.candidate.bits = plan.graph.node(node).bits;
      selection.candidate.mapped_width = selection.candidate.bits;
      selection.candidate.weight =
          cost.candidate_cost(1.0, plan.graph.node(node).lib_cell);
      selection.candidate.common_region = plan.graph.node(node).region;
      selection.members.push_back(plan.graph.node(node).cell);
      outcome.selections.push_back(std::move(selection));
    }
    return outcome;
  });

  for (SubgraphOutcome& outcome : outcomes) {
    plan.candidate_count += outcome.clique_count;
    for (Selection& selection : outcome.selections)
      plan.selections.push_back(std::move(selection));
  }

  std::sort(plan.selections.begin(), plan.selections.end(),
            [](const Selection& a, const Selection& b) {
              return a.members.front() < b.members.front();
            });
  return plan;
}

}  // namespace mbrc::mbr
