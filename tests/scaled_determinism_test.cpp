// Determinism enforced at the size where races actually surface.
//
// The parallel subgraph fan-out (cliques, candidate enumeration, ILP/LP
// solves) and the parallel compatibility build are contracted bit-identical
// at any jobs value; the small-design checks in parallel_flow_test.cpp keep
// a handful of pool tasks in flight, which barely exercises interleaving.
// Here a >=50x scaled benchgen profile (benchgen::scaled_profiles) drives
// six figures of registers through the planning stages at jobs 1 vs 8, and
// the bulk edge-insertion path is replayed in a permuted order to prove the
// graph canonicalization does not depend on insertion order.
//
// The combinational budget is cut to one gate per register: the planning
// stages under test never read the cones (they see registers, placement,
// control nets and endpoint slacks), while generating the full D1 cone load
// at 50x would multiply fixture time for no extra coverage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

// 50x D1 (147k registers) by default; MBRC_SCALE_FACTOR overrides it so the
// TSan CI job can push the same parallel stages through a size its ~15x
// slowdown can afford.
int scale_factor() {
  const char* env = std::getenv("MBRC_SCALE_FACTOR");
  const int factor = env ? std::atoi(env) : 50;
  return factor >= 1 ? factor : 50;
}

struct ScaledFixture {
  lib::Library library = lib::make_default_library();
  std::optional<benchgen::GeneratedDesign> generated;
  sta::TimingReport timing;

  ScaledFixture() {
    benchgen::DesignProfile profile =
        benchgen::scaled_profiles(scale_factor()).front();
    profile.comb_per_register = 1.0;
    generated = benchgen::generate_design(library, profile);
    sta::TimingOptions options;
    options.clock_period = generated->calibrated_clock_period;
    timing = sta::run_sta(generated->design, options);
  }
};

ScaledFixture& fixture() {
  static ScaledFixture f;
  return f;
}

TEST(ScaledDeterminism, PlanIsBitIdenticalAcrossJobCounts) {
  ScaledFixture& f = fixture();
  mbr::CompositionOptions options;

  options.jobs = 1;
  const mbr::CompositionPlan serial =
      mbr::plan_composition(f.generated->design, f.timing, options);
  options.jobs = 8;
  const mbr::CompositionPlan wide =
      mbr::plan_composition(f.generated->design, f.timing, options);

  ASSERT_GT(serial.subgraph_count, scale_factor())
      << "scaled profile produced a trivial plan; the test lost its teeth";
  EXPECT_EQ(serial.graph.node_count(), wide.graph.node_count());
  EXPECT_EQ(serial.graph.edge_count(), wide.graph.edge_count());
  EXPECT_EQ(serial.subgraph_count, wide.subgraph_count);
  EXPECT_EQ(serial.candidate_count, wide.candidate_count);
  EXPECT_EQ(serial.ilp_nodes, wide.ilp_nodes);
  EXPECT_EQ(serial.truncated_subgraphs, wide.truncated_subgraphs);
  // Bit-identical, not nearly-equal: the reductions happen in subgraph
  // order on the calling thread, so even the float sum must match.
  EXPECT_EQ(serial.objective, wide.objective);

  ASSERT_EQ(serial.selections.size(), wide.selections.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < serial.selections.size(); ++i) {
    const mbr::Selection& a = serial.selections[i];
    const mbr::Selection& b = wide.selections[i];
    if (a.candidate.nodes != b.candidate.nodes || a.members != b.members ||
        a.candidate.weight != b.candidate.weight) {
      ++mismatches;
      EXPECT_LE(mismatches, 5) << "selection " << i << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ScaledDeterminism, EdgeInsertionOrderDoesNotChangeTheGraph) {
  ScaledFixture& f = fixture();
  mbr::CompatibilityOptions options;
  options.jobs = 8;
  const mbr::CompatibilityGraph graph =
      mbr::build_compatibility_graph(f.generated->design, f.timing, options);

  // The real scaled edge set, as forward pairs.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < graph.node_count(); ++i)
    for (int j : graph.neighbors(i))
      if (j > i) edges.emplace_back(i, j);
  ASSERT_GT(static_cast<int>(edges.size()), 200 * scale_factor())
      << "scaled graph is unexpectedly sparse; fixture lost its teeth";

  // Deterministic Fisher-Yates permutation of the insertion order.
  util::Rng rng(7);
  for (std::size_t i = edges.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(edges[i], edges[j]);
  }

  mbr::CompatibilityGraph rebuilt;
  for (int i = 0; i < graph.node_count(); ++i) rebuilt.add_node(graph.node(i));
  for (const auto& [a, b] : edges) rebuilt.add_edge(a, b);
  rebuilt.finalize();

  ASSERT_EQ(rebuilt.node_count(), graph.node_count());
  EXPECT_EQ(rebuilt.edge_count(), graph.edge_count());
  int mismatches = 0;
  for (int i = 0; i < graph.node_count(); ++i) {
    if (rebuilt.neighbors(i) != graph.neighbors(i)) {
      ++mismatches;
      EXPECT_LE(mismatches, 5) << "adjacency of node " << i << " differs";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace mbrc
