#include <gtest/gtest.h>

#include <set>

#include "ilp/set_partition.hpp"
#include "mbr/candidates.hpp"
#include "mbr/composition.hpp"
#include "mbr/heuristic.hpp"
#include "mbr/worked_example.hpp"

namespace mbrc::mbr {
namespace {

// The greedy step runs on one subgraph and needs only a graph and a library,
// so these unit checks use the worked example, where the heuristic's
// behaviour is fully predictable.
TEST(HeuristicWorkedExample, GreedyCommitsBcfAndStrandsAdE) {
  const WorkedExample example = make_worked_example();
  std::vector<int> subgraph;
  for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);

  // Maximal cliques of Fig. 1: {A,B,C,D} (4 bits), {A,C,E} (6 bits -> trims),
  // {B,C,F} (4 bits).
  using WE = WorkedExample;
  const auto cliques = maximal_cliques(example.graph, subgraph);
  ASSERT_EQ(cliques.size(), 3u);
  std::set<std::vector<int>> clique_set(cliques.begin(), cliques.end());
  EXPECT_TRUE(clique_set.contains(
      std::vector<int>{WE::kA, WE::kB, WE::kC, WE::kD}));
  EXPECT_TRUE(clique_set.contains(std::vector<int>{WE::kB, WE::kC, WE::kF}));

  // The two 4-bit cliques tie on bits and {B,C,F} has the smaller bounding
  // box, so the greedy step commits it first. Both other cliques share C
  // with it, which strands A, D and E as singletons: 4 registers.
  const SubgraphPlan plan =
      allocate_greedy(example.graph, *example.library, subgraph, CostModel{});
  EXPECT_EQ(plan.candidate_count, 3);  // the maximal cliques
  EXPECT_EQ(plan.objective, 0.0);
  EXPECT_EQ(plan.ilp_nodes, 0);
  EXPECT_FALSE(plan.truncated);
  std::vector<std::vector<int>> chosen;
  for (const Candidate& c : plan.chosen) {
    chosen.push_back(c.nodes);
    EXPECT_EQ(c.mapped_width, c.bits);
  }
  const std::vector<std::vector<int>> expected = {
      {WE::kB, WE::kC, WE::kF}, {WE::kA}, {WE::kD}, {WE::kE}};
  EXPECT_EQ(chosen, expected);

  // The exact ILP covers the same subgraph with 3 registers:
  // {A,C,D}+{B,F}+E at 1/3 + 1/3 + 1/4 = 11/12.
  const BlockerIndex blockers(example.graph);
  const EnumerationResult enumeration = enumerate_candidates(
      example.graph, *example.library, blockers, subgraph);
  const ilp::SetPartitionResult ilp_result =
      solve_subgraph(subgraph, enumeration.candidates);
  ASSERT_TRUE(ilp_result.feasible);
  EXPECT_EQ(ilp_result.chosen.size(), 3u);
  EXPECT_NEAR(ilp_result.objective, 11.0 / 12.0, 1e-9);
}

TEST(HeuristicWorkedExample, TrimmedCliqueAlwaysFitsALibraryWidth) {
  // The 6-bit clique {A,C,E} has no 6-bit cell; the heuristic's trimming
  // must land on an available width or give up -- never emit an invalid
  // width (the flow-level mapper would reject it). Exercised indirectly:
  // enumerate the available widths and check 6 is absent while subsets fit.
  const WorkedExample example = make_worked_example();
  const auto widths =
      example.library->available_widths(lib::RegisterFunction{});
  EXPECT_EQ(widths, (std::vector<int>{1, 2, 3, 4, 8}));
  // {A,C,E} = 6 bits: not a width. {A,C} = 2: fits. {A,E} = 5: not a width
  // (only reachable as an incomplete 8, which the baseline does not use).
  EXPECT_FALSE(std::binary_search(widths.begin(), widths.end(), 6));
  EXPECT_TRUE(std::binary_search(widths.begin(), widths.end(), 2));
}

}  // namespace
}  // namespace mbrc::mbr
