// Heuristic MBR allocation baseline (Fig. 6 comparison).
//
// The paper compares its ILP against "a maximal clique identification and
// MBR mapping heuristic" in the style of refs [8]/[12]. This baseline is a
// single pass: identify the maximal cliques of each compatibility subgraph
// (Bron-Kerbosch), map each clique to the widest fitting library width by
// trimming its farthest-from-centroid members, then commit greedily --
// most bits first -- skipping cliques that touch already-committed
// registers. No placement-aware weights, no incomplete MBRs, no exact
// cover: a big clique taken early strands its overlap-neighbors as
// singletons, which is precisely the fragmentation the set-partitioning
// ILP avoids (the paper reports ~12% fewer registers from the ILP).
//
// plan_on_graph runs this step per subgraph under Allocator::kHeuristic,
// on the same subgraphs the ILP step would see.
#pragma once

#include "mbr/composition.hpp"

namespace mbrc::mbr {

/// The greedy step on one subgraph (graph node ids, sorted ascending, at
/// most 64): every node ends up in exactly one chosen candidate. `cost`
/// gates merges whose created cell prices worse than the cells they
/// replace, and prices each chosen weight.
SubgraphPlan allocate_greedy(const CompatibilityGraph& graph,
                             const lib::Library& library,
                             const std::vector<int>& subgraph,
                             const CostModel& cost);

}  // namespace mbrc::mbr
