// Clique machinery over the compatibility graph (Sec. 3).
//
// Maximal cliques come from the Bron-Kerbosch algorithm with pivoting
// (paper ref [14]). Because maximal-clique enumeration is O(3^{n/3}), the
// graph is first split into connected components, and components larger than
// the subgraph bound are K-partitioned by the positions of the register
// clock pins (recursive geometric bisection), exactly as Sec. 3 prescribes
// with its <= 30-node bound.
#pragma once

#include <vector>

#include "mbr/compatibility.hpp"

namespace mbrc::mbr {

/// All maximal cliques of the subgraph induced by `nodes` (graph node
/// indices; at most 64). Cliques are sorted internally; the list is sorted
/// lexicographically. Singletons of isolated nodes are included (they are
/// maximal cliques of size 1).
std::vector<std::vector<int>> maximal_cliques(const CompatibilityGraph& graph,
                                              const std::vector<int>& nodes);

/// Largest subgraph the clique and candidate steps accept: both work on
/// 64-bit node masks.
inline constexpr int kMaxSubgraphNodes = 64;

struct PartitionOptions {
  /// Subgraph bound; the paper found 30 to be the sweet spot (smaller
  /// loses QoR, larger only costs runtime). Must lie in
  /// [1, kMaxSubgraphNodes].
  int max_nodes = 30;
};

/// Throws util::AssertionError, naming the limit, unless
/// 1 <= options.max_nodes <= kMaxSubgraphNodes.
void check_partition_options(const PartitionOptions& options);

/// Splits one connected component into subgraphs of at most
/// `options.max_nodes` nodes by recursively bisecting the register clock-pin
/// positions along the wider axis (median split). Edges between subgraphs
/// are implicitly dropped by downstream per-subgraph processing.
std::vector<std::vector<int>> partition_component(
    const CompatibilityGraph& graph, const netlist::Design& design,
    std::vector<int> component, const PartitionOptions& options = {});

/// Convenience: components -> partitioned subgraphs for the whole graph.
std::vector<std::vector<int>> partition_graph(
    const CompatibilityGraph& graph, const netlist::Design& design,
    const PartitionOptions& options = {});

}  // namespace mbrc::mbr
