#include "mbr/cliques.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

using Mask = std::uint64_t;

struct BronKerbosch {
  const std::vector<Mask>& adjacency;  // local adjacency masks
  std::vector<Mask> cliques;

  void expand(Mask r, Mask p, Mask x) {
    if (p == 0 && x == 0) {
      cliques.push_back(r);
      return;
    }
    // Pivot: vertex of P|X with the most neighbors in P.
    Mask px = p | x;
    int pivot = -1, best = -1;
    for (Mask m = px; m;) {
      const int v = std::countr_zero(m);
      m &= m - 1;
      const int count = std::popcount(p & adjacency[v]);
      if (count > best) {
        best = count;
        pivot = v;
      }
    }
    Mask candidates = p & ~adjacency[pivot];
    for (Mask m = candidates; m;) {
      const int v = std::countr_zero(m);
      m &= m - 1;
      const Mask vbit = Mask{1} << v;
      expand(r | vbit, p & adjacency[v], x & adjacency[v]);
      p &= ~vbit;
      x |= vbit;
    }
  }
};

}  // namespace

std::vector<std::vector<int>> maximal_cliques(const CompatibilityGraph& graph,
                                              const std::vector<int>& nodes) {
  const int n = static_cast<int>(nodes.size());
  MBRC_ASSERT_MSG(n <= kMaxSubgraphNodes,
                  "maximal_cliques subgraph larger than 64 nodes; "
                  "partition the component first");
  if (n == 0) return {};

  // Local adjacency masks restricted to `nodes`: merge each node's sorted
  // neighbor list against the sorted subgraph (O(degree + n) per node)
  // instead of the n^2/2 has_edge binary searches this replaces.
  std::vector<Mask> adjacency(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& neighbors = graph.neighbors(nodes[i]);
    std::size_t a = 0;
    std::size_t b = 0;
    Mask mask = 0;
    while (a < neighbors.size() && b < nodes.size()) {
      if (neighbors[a] < nodes[b]) {
        ++a;
      } else if (neighbors[a] > nodes[b]) {
        ++b;
      } else {
        mask |= Mask{1} << b;
        ++a;
        ++b;
      }
    }
    adjacency[static_cast<std::size_t>(i)] = mask;
  }

  BronKerbosch bk{adjacency, {}};
  const Mask all = n == 64 ? ~Mask{0} : (Mask{1} << n) - 1;
  bk.expand(0, all, 0);

  // One flush per subgraph; runs concurrently on pool workers, but integer
  // totals are scheduling-independent (DESIGN.md §11).
  static obs::Counter& c_calls = obs::counter("mbr.cliques.calls");
  static obs::Counter& c_found = obs::counter("mbr.cliques.enumerated");
  static obs::Histogram& h_per =
      obs::histogram("mbr.cliques.per_subgraph");
  c_calls.add(1);
  c_found.add(static_cast<std::int64_t>(bk.cliques.size()));
  h_per.record(static_cast<std::int64_t>(bk.cliques.size()));

  std::vector<std::vector<int>> result;
  result.reserve(bk.cliques.size());
  for (Mask clique : bk.cliques) {
    std::vector<int> members;
    for (Mask m = clique; m;) {
      const int v = std::countr_zero(m);
      m &= m - 1;
      members.push_back(nodes[v]);
    }
    std::sort(members.begin(), members.end());
    result.push_back(std::move(members));
  }
  std::sort(result.begin(), result.end());
  return result;
}

namespace {

geom::Point clock_pin_position(const CompatibilityGraph& graph,
                               const netlist::Design& design, int node) {
  const netlist::CellId cell = graph.node(node).cell;
  return design.pin_position(design.register_clock_pin(cell));
}

void bisect(const CompatibilityGraph& graph, const netlist::Design& design,
            std::vector<int> nodes, int max_nodes,
            std::vector<std::vector<int>>& out) {
  if (static_cast<int>(nodes.size()) <= max_nodes) {
    out.push_back(std::move(nodes));
    return;
  }
  // Median split along the axis with the wider clock-pin spread: keeps each
  // side geometrically tight, which preserves the cliques that matter for
  // clock-power reduction (nearby registers).
  geom::Rect box = geom::Rect::empty();
  for (int v : nodes) box = box.expand(clock_pin_position(graph, design, v));
  const bool split_x = box.width() >= box.height();

  const auto mid = nodes.begin() + static_cast<std::ptrdiff_t>(nodes.size()) / 2;
  std::nth_element(nodes.begin(), mid, nodes.end(), [&](int a, int b) {
    const geom::Point pa = clock_pin_position(graph, design, a);
    const geom::Point pb = clock_pin_position(graph, design, b);
    if (split_x) return pa.x < pb.x || (pa.x == pb.x && a < b);
    return pa.y < pb.y || (pa.y == pb.y && a < b);
  });

  std::vector<int> left(nodes.begin(), mid);
  std::vector<int> right(mid, nodes.end());
  bisect(graph, design, std::move(left), max_nodes, out);
  bisect(graph, design, std::move(right), max_nodes, out);
}

}  // namespace

void check_partition_options(const PartitionOptions& options) {
  MBRC_ASSERT_MSG(
      options.max_nodes >= 1 && options.max_nodes <= kMaxSubgraphNodes,
      "partition max_nodes must lie in [1, " +
          std::to_string(kMaxSubgraphNodes) + "], got " +
          std::to_string(options.max_nodes));
}

std::vector<std::vector<int>> partition_component(
    const CompatibilityGraph& graph, const netlist::Design& design,
    std::vector<int> component, const PartitionOptions& options) {
  check_partition_options(options);
  std::vector<std::vector<int>> out;
  bisect(graph, design, std::move(component), options.max_nodes, out);
  for (auto& part : out) std::sort(part.begin(), part.end());
  return out;
}

std::vector<std::vector<int>> partition_graph(const CompatibilityGraph& graph,
                                              const netlist::Design& design,
                                              const PartitionOptions& options) {
  std::vector<std::vector<int>> subgraphs;
  for (auto& component : graph.connected_components()) {
    auto parts = partition_component(graph, design, std::move(component),
                                     options);
    for (auto& p : parts) subgraphs.push_back(std::move(p));
  }
  return subgraphs;
}

}  // namespace mbrc::mbr
