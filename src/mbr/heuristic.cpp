#include "mbr/heuristic.hpp"

#include <algorithm>
#include <numeric>

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

SubgraphPlan allocate_greedy(const CompatibilityGraph& graph,
                             const lib::Library& library,
                             const std::vector<int>& subgraph,
                             const CostModel& cost) {
  SubgraphPlan out;
  if (subgraph.empty()) return out;
  const lib::RegisterFunction function =
      graph.node(subgraph.front()).lib_cell->function;
  const std::vector<int>& widths = library.available_widths(function);

  // Single pass, as in the refs-[8]/[12] style baseline: identify the
  // maximal cliques, map each to the widest fitting library cell by
  // trimming its farthest members, then commit greedily (most bits first).
  // Leftover members of overlapping cliques strand as singletons -- exactly
  // the fragmentation the exact ILP avoids.
  const auto cliques = maximal_cliques(graph, subgraph);
  out.candidate_count = static_cast<std::int64_t>(cliques.size());

  struct Mapped {
    std::vector<int> nodes;
    int bits = 0;
    double spread = 0.0;
  };
  std::vector<Mapped> mapped;
  mapped.reserve(cliques.size());
  for (const auto& clique : cliques) {
    auto trimmed = trim_to_width(graph, widths, clique);
    if (trimmed.size() < 2) continue;
    Mapped m;
    geom::Rect bbox = geom::Rect::empty();
    for (int node : trimmed) {
      m.bits += graph.node(node).bits;
      bbox = bbox.unite(graph.node(node).footprint);
    }
    // Multi-objective gate (mbr/cost.hpp): refuse a merge whose created
    // cell prices worse than the member cells it replaces. With the
    // default model (beta = gamma = 0) both sides are zero and every
    // merge passes, reproducing the plain greedy baseline.
    if (cost.multi_objective()) {
      const lib::RegisterCell* merged = library.cheapest_cell(function, m.bits);
      // Per-clique fold, serial within this subgraph, so the order is fixed.
      const double replaced = std::accumulate(
          trimmed.begin(), trimmed.end(), 0.0, [&](double sum, int node) {
            return sum + cost.cell_cost(*graph.node(node).lib_cell);
          });
      if (merged == nullptr || cost.cell_cost(*merged) >= replaced) continue;
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

  // Committed marks by subgraph rank (the subgraph is sorted).
  const auto rank = [&](int node) {
    return static_cast<std::size_t>(
        std::lower_bound(subgraph.begin(), subgraph.end(), node) -
        subgraph.begin());
  };
  std::vector<bool> used(subgraph.size(), false);
  for (const Mapped& m : mapped) {
    if (std::any_of(m.nodes.begin(), m.nodes.end(),
                    [&](int node) { return used[rank(node)]; }))
      continue;

    geom::Rect region = geom::Rect::universe();
    for (int node : m.nodes) region = region.intersect(graph.node(node).region);

    Candidate candidate;
    candidate.nodes = m.nodes;
    candidate.bits = m.bits;
    candidate.mapped_width = m.bits;
    // The greedy baseline has no placement-aware weight (that is the ILP's
    // edge); price the created cell so the reported weight is comparable
    // across allocators under one cost model.
    candidate.weight =
        cost.candidate_cost(1.0, library.cheapest_cell(function, m.bits));
    candidate.needs_per_bit_scan = candidate_needs_per_bit_scan(graph, m.nodes);
    candidate.common_region = region;
    for (int node : m.nodes) used[rank(node)] = true;
    out.chosen.push_back(std::move(candidate));
  }

  for (std::size_t i = 0; i < subgraph.size(); ++i) {
    if (used[i]) continue;
    const RegisterInfo& info = graph.node(subgraph[i]);
    Candidate candidate;
    candidate.nodes = {subgraph[i]};
    candidate.bits = info.bits;
    candidate.mapped_width = info.bits;
    candidate.weight = cost.candidate_cost(1.0, info.lib_cell);
    candidate.common_region = info.region;
    out.chosen.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace mbrc::mbr
