#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "mbr/heuristic.hpp"
#include "mbr/worked_example.hpp"
#include "solver_oracles.hpp"

namespace mbrc::mbr {
namespace {

std::string names(const std::vector<int>& nodes) {
  std::string s;
  for (int n : nodes) s += WorkedExample::node_name(n);
  return s;
}

class WorkedExampleIlp : public ::testing::Test {
protected:
  WorkedExampleIlp() : example(make_worked_example()), blockers(example.graph) {
    for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);
  }

  WorkedExample example;
  BlockerIndex blockers;
  std::vector<int> subgraph;
};

TEST_F(WorkedExampleIlp, SixRegistersBecomeThree) {
  const EnumerationResult enumeration = enumerate_candidates(
      example.graph, *example.library, blockers, subgraph);
  const ilp::SetPartitionResult solved =
      solve_subgraph(subgraph, enumeration.candidates);
  ASSERT_TRUE(solved.feasible);
  EXPECT_EQ(solved.chosen.size(), 3u);  // the paper's 6 -> 3
  // Optimal objective: 1/3 ({A,C,D} or {A,B,D}) + 1/3 (pair with F) + 1/4 (E).
  EXPECT_NEAR(solved.objective, 1.0 / 3 + 1.0 / 3 + 0.25, 1e-9);

  // The selection is an exact cover.
  std::set<int> covered;
  for (int index : solved.chosen)
    for (int node : enumeration.candidates[index].nodes)
      EXPECT_TRUE(covered.insert(node).second);
  EXPECT_EQ(covered.size(), 6u);

  // E stays a singleton (it only pairs into rejected incomplete MBRs).
  bool e_alone = false;
  for (int index : solved.chosen) {
    if (enumeration.candidates[index].nodes ==
        std::vector<int>{WorkedExample::kE})
      e_alone = true;
  }
  EXPECT_TRUE(e_alone);
}

TEST_F(WorkedExampleIlp, MatchesExhaustiveEnumeration) {
  const EnumerationResult enumeration = enumerate_candidates(
      example.graph, *example.library, blockers, subgraph);
  const ilp::SetPartitionResult fast =
      solve_subgraph(subgraph, enumeration.candidates);

  // The subgraph is every node 0..n-1, so node ids are the element ids.
  ilp::SetPartitionProblem problem;
  problem.element_count = static_cast<int>(subgraph.size());
  for (const Candidate& c : enumeration.candidates)
    problem.candidates.push_back({c.nodes, c.weight});
  const oracle::PartitionOptimum exact =
      oracle::exhaustive_min_partition(problem);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(fast.objective, exact.objective, 1e-9);
}

TEST_F(WorkedExampleIlp, BlockedCandidatesNeverBeatSingletons) {
  // Structural property of the Sec. 3.2 weights: b * 2^n >= 2b while the
  // singleton decomposition costs at most b -- so a blocked candidate never
  // appears in an optimal solution.
  const EnumerationResult enumeration = enumerate_candidates(
      example.graph, *example.library, blockers, subgraph);
  const ilp::SetPartitionResult solved =
      solve_subgraph(subgraph, enumeration.candidates);
  for (int index : solved.chosen)
    EXPECT_EQ(enumeration.candidates[index].blockers, 0)
        << names(enumeration.candidates[index].nodes);
}

TEST(PlanComposition, ExactCoverOnGeneratedDesign) {
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.register_cells = 300;
  profile.comb_per_register = 4.0;
  profile.seed = 21;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  const sta::TimingReport report = sta::run_sta(generated.design, timing);

  const CompositionPlan plan =
      plan_composition(generated.design, report, {});
  EXPECT_GT(plan.graph.node_count(), 0);
  EXPECT_GT(plan.subgraph_count, 0);
  EXPECT_EQ(plan.truncated_subgraphs, 0);

  // Every composable register appears in exactly one selection.
  std::map<netlist::CellId, int> coverage;
  for (const Selection& s : plan.selections) {
    EXPECT_EQ(s.members.size(), s.candidate.nodes.size());
    for (netlist::CellId member : s.members) ++coverage[member];
  }
  EXPECT_EQ(static_cast<int>(coverage.size()), plan.graph.node_count());
  for (const auto& [cell, count] : coverage) EXPECT_EQ(count, 1);

  // Merges reduce the planned register count below the node count.
  EXPECT_LT(plan.planned_register_count(), plan.graph.node_count());
  EXPECT_FALSE(plan.merges().empty());

  // Deterministic: planning again gives the same selections.
  const CompositionPlan again =
      plan_composition(generated.design, report, {});
  ASSERT_EQ(again.selections.size(), plan.selections.size());
  for (std::size_t i = 0; i < plan.selections.size(); ++i)
    EXPECT_EQ(again.selections[i].members, plan.selections[i].members);
  EXPECT_DOUBLE_EQ(again.objective, plan.objective);
}

TEST(PlanCompositionHeuristic, ValidPartitionAndIlpNoWorse) {
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.register_cells = 400;
  profile.comb_per_register = 4.0;
  profile.seed = 33;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  const sta::TimingReport report = sta::run_sta(generated.design, timing);

  CompositionOptions greedy;
  greedy.allocator = Allocator::kHeuristic;
  const CompositionPlan ilp = plan_composition(generated.design, report, {});
  const CompositionPlan heur =
      plan_composition(generated.design, report, greedy);

  // Both are exact covers of the same node set.
  EXPECT_EQ(ilp.graph.node_count(), heur.graph.node_count());
  std::set<netlist::CellId> covered;
  for (const Selection& s : heur.selections)
    for (netlist::CellId member : s.members)
      EXPECT_TRUE(covered.insert(member).second);
  EXPECT_EQ(static_cast<int>(covered.size()), heur.graph.node_count());

  // The exact ILP never plans more registers than the greedy baseline
  // (Fig. 6's direction).
  EXPECT_LE(ilp.planned_register_count(), heur.planned_register_count());
}

// A heuristic region plan is the whole-graph heuristic plan restricted to
// the subgraphs that hold a region node: both allocators share the
// planner's partition and reduction, so region planning is exact for either.
TEST(PlanCompositionHeuristic, RegionPlanEqualsWholePlanOnItsSubgraphs) {
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.register_cells = 400;
  profile.comb_per_register = 4.0;
  profile.seed = 33;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  const netlist::Design& design = generated.design;

  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  const sta::TimingReport report = sta::run_sta(design, timing);

  CompositionOptions options;
  options.allocator = Allocator::kHeuristic;
  const CompatibilityGraph graph =
      build_compatibility_graph(design, report, options.compatibility);
  const BlockerIndex blockers(graph);
  const CompositionPlan whole =
      plan_on_graph(graph, blockers, design, std::nullopt, options);

  std::vector<netlist::CellId> cells;
  for (int node = 0; node < graph.node_count(); node += 23)
    cells.push_back(graph.node(node).cell);
  const std::vector<int> region = region_nodes(graph, cells);
  const CompositionPlan got =
      plan_on_graph(graph, blockers, design, region, options);

  // The expected plan: the whole plan's selections inside the kept
  // subgraphs, and the greedy step's clique count summed over them.
  std::set<int> kept_nodes;
  int kept = 0;
  std::int64_t cliques = 0;
  for (const std::vector<int>& part :
       partition_graph(graph, design, options.partition)) {
    if (std::none_of(part.begin(), part.end(), [&](int node) {
          return std::binary_search(region.begin(), region.end(), node);
        }))
      continue;
    ++kept;
    kept_nodes.insert(part.begin(), part.end());
    cliques += allocate_greedy(graph, library, part,
                               options.enumeration.cost).candidate_count;
  }
  std::vector<const Selection*> expected;
  for (const Selection& s : whole.selections)
    if (kept_nodes.contains(s.candidate.nodes.front())) expected.push_back(&s);

  ASSERT_GT(kept, 0);
  ASSERT_LT(kept, whole.subgraph_count);
  EXPECT_EQ(got.subgraph_count, kept);
  EXPECT_EQ(got.candidate_count, cliques);
  EXPECT_EQ(got.objective, 0.0);
  EXPECT_EQ(got.ilp_nodes, 0);
  ASSERT_EQ(got.selections.size(), expected.size());
  int merges = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Selection& a = got.selections[i];
    const Selection& b = *expected[i];
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.candidate.nodes, b.candidate.nodes);
    EXPECT_EQ(a.candidate.bits, b.candidate.bits);
    EXPECT_EQ(a.candidate.weight, b.candidate.weight);
    if (a.members.size() >= 2) ++merges;
  }
  EXPECT_GT(merges, 0);
}

}  // namespace
}  // namespace mbrc::mbr
