#include <gtest/gtest.h>

#include <set>

#include "mbr/cliques.hpp"
#include "mbr/composition.hpp"
#include "mbr/worked_example.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mbrc::mbr {
namespace {

CompatibilityGraph graph_with(int nodes,
                              const std::vector<std::pair<int, int>>& edges) {
  const WorkedExample example = make_worked_example();
  CompatibilityGraph g;
  for (int i = 0; i < nodes; ++i) g.add_node(example.graph.node(0));
  for (auto [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

std::vector<int> all_nodes(const CompatibilityGraph& g) {
  std::vector<int> nodes(g.node_count());
  for (int i = 0; i < g.node_count(); ++i) nodes[i] = i;
  return nodes;
}

TEST(BronKerbosch, Triangle) {
  const auto g = graph_with(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto cliques = maximal_cliques(g, all_nodes(g));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1, 2}));
}

TEST(BronKerbosch, PathGraph) {
  const auto g = graph_with(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto cliques = maximal_cliques(g, all_nodes(g));
  ASSERT_EQ(cliques.size(), 3u);  // the three edges
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(cliques[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(cliques[2], (std::vector<int>{2, 3}));
}

TEST(BronKerbosch, IsolatedNodesAreSingletonCliques) {
  const auto g = graph_with(3, {{0, 1}});
  const auto cliques = maximal_cliques(g, all_nodes(g));
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(cliques[1], (std::vector<int>{2}));
}

TEST(BronKerbosch, CompleteGraphHasOneClique) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 7; ++i)
    for (int j = i + 1; j < 7; ++j) edges.push_back({i, j});
  const auto g = graph_with(7, edges);
  const auto cliques = maximal_cliques(g, all_nodes(g));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].size(), 7u);
}

TEST(BronKerbosch, WorkedExampleMaximalCliques) {
  const WorkedExample example = make_worked_example();
  const auto cliques =
      maximal_cliques(example.graph, all_nodes(example.graph));
  // Maximal cliques of Fig. 1: {A,B,C,D}, {A,C,E}, {B,C,F}.
  using WE = WorkedExample;
  const std::set<std::vector<int>> expected = {
      {WE::kA, WE::kB, WE::kC, WE::kD},
      {WE::kA, WE::kC, WE::kE},
      {WE::kB, WE::kC, WE::kF}};
  EXPECT_EQ(std::set<std::vector<int>>(cliques.begin(), cliques.end()),
            expected);
}

TEST(BronKerbosch, SubsetRestriction) {
  const WorkedExample example = make_worked_example();
  using WE = WorkedExample;
  const auto cliques =
      maximal_cliques(example.graph, {WE::kA, WE::kB, WE::kD});
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<int>{WE::kA, WE::kB, WE::kD}));
}

// Property: on random graphs, every reported clique is a real clique, is
// maximal, and every edge is covered by some clique.
TEST(BronKerbosch, RandomGraphProperties) {
  util::Rng rng(31);
  const WorkedExample example = make_worked_example();
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 18));
    CompatibilityGraph g;
    for (int i = 0; i < n; ++i) g.add_node(example.graph.node(0));
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.chance(0.35)) g.add_edge(i, j);
    g.finalize();

    const auto cliques = maximal_cliques(g, all_nodes(g));
    for (const auto& clique : cliques) {
      for (std::size_t a = 0; a < clique.size(); ++a)
        for (std::size_t b = a + 1; b < clique.size(); ++b)
          ASSERT_TRUE(g.has_edge(clique[a], clique[b]));
      // Maximality: no vertex adjacent to the whole clique.
      for (int v = 0; v < n; ++v) {
        if (std::find(clique.begin(), clique.end(), v) != clique.end())
          continue;
        bool adjacent_to_all = true;
        for (int m : clique)
          if (!g.has_edge(v, m)) {
            adjacent_to_all = false;
            break;
          }
        ASSERT_FALSE(adjacent_to_all) << "clique not maximal";
      }
    }
    // Edge coverage.
    for (int i = 0; i < n; ++i) {
      for (int j : g.neighbors(i)) {
        if (j < i) continue;
        bool covered = false;
        for (const auto& clique : cliques) {
          if (std::find(clique.begin(), clique.end(), i) != clique.end() &&
              std::find(clique.begin(), clique.end(), j) != clique.end()) {
            covered = true;
            break;
          }
        }
        ASSERT_TRUE(covered);
      }
    }
  }
}

class PartitionFixture : public ::testing::Test {
protected:
  PartitionFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 400, 40}) {
    // A line of registers along x; one graph node per register, fully
    // connected so partitioning is driven purely by geometry.
    const auto* cell = library.register_by_name("DFFP_B1_X1");
    const netlist::NetId clk = design.create_net(true);
    for (int i = 0; i < 64; ++i) {
      const netlist::CellId reg = design.add_register(
          "r" + std::to_string(i), cell, {i * 6.0, 10.0});
      design.connect(design.register_clock_pin(reg), clk);
      RegisterInfo info;
      info.cell = reg;
      info.lib_cell = cell;
      info.bits = 1;
      info.footprint = design.cell(reg).footprint();
      info.region = info.footprint.inflate(50);
      info.clock_net = clk;
      graph.add_node(info);
    }
    for (int i = 0; i < 64; ++i)
      for (int j = i + 1; j < 64; ++j) graph.add_edge(i, j);
    graph.finalize();
  }

  lib::Library library;
  netlist::Design design;
  CompatibilityGraph graph;
};

TEST_F(PartitionFixture, RespectsBoundAndCoversAllNodes) {
  PartitionOptions options;
  options.max_nodes = 30;
  auto component = graph.connected_components().front();
  const auto parts = partition_component(graph, design, component, options);
  std::set<int> seen;
  for (const auto& part : parts) {
    EXPECT_LE(static_cast<int>(part.size()), 30);
    for (int v : part) EXPECT_TRUE(seen.insert(v).second);  // disjoint
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST_F(PartitionFixture, GeometricSplitKeepsNeighborsTogether) {
  PartitionOptions options;
  options.max_nodes = 16;
  auto component = graph.connected_components().front();
  const auto parts = partition_component(graph, design, component, options);
  ASSERT_EQ(parts.size(), 4u);  // 64 / 16
  // The line is split by x: each part is a contiguous index range.
  for (const auto& part : parts) {
    for (std::size_t k = 1; k < part.size(); ++k)
      EXPECT_EQ(part[k], part[k - 1] + 1);
  }
}

TEST_F(PartitionFixture, SmallComponentLeftIntact) {
  PartitionOptions options;
  options.max_nodes = 64;
  auto component = graph.connected_components().front();
  const auto parts = partition_component(graph, design, component, options);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 64u);
}

TEST_F(PartitionFixture, BoundOutsideOneToSixtyFourIsRejectedUpFront) {
  // The clique and candidate steps use 64-bit masks: a bound of 65 would
  // only fail later, inside a worker task, once a part exceeded 64 nodes.
  auto component = graph.connected_components().front();
  for (const int bound : {0, -3, 65, 1000}) {
    PartitionOptions options;
    options.max_nodes = bound;
    try {
      partition_component(graph, design, component, options);
      ADD_FAILURE() << "bound " << bound << " accepted";
    } catch (const util::AssertionError& e) {
      EXPECT_NE(std::string(e.what()).find("[1, 64]"), std::string::npos)
          << e.what();
    }
    CompositionOptions composition;
    composition.partition = options;
    // Rejected before partitioning, even for an empty region.
    EXPECT_THROW(plan_on_graph(graph, BlockerIndex(graph), design,
                               std::vector<int>{}, composition),
                 util::AssertionError)
        << "bound " << bound;
  }
  PartitionOptions widest;
  widest.max_nodes = kMaxSubgraphNodes;
  EXPECT_EQ(partition_component(graph, design, component, widest).size(), 1u);
}

TEST_F(PartitionFixture, PartitionGraphHandlesWholeGraph) {
  PartitionOptions options;
  options.max_nodes = 10;
  const auto parts = partition_graph(graph, design, options);
  std::size_t total = 0;
  for (const auto& part : parts) {
    EXPECT_LE(part.size(), 10u);
    total += part.size();
  }
  EXPECT_EQ(total, 64u);
}

}  // namespace
}  // namespace mbrc::mbr
