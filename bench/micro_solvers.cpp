// Microbenchmarks of the algorithmic kernels (google-benchmark): the
// weighted-median MBR placement (exact optimum of the paper's Sec. 4.2 LP),
// the exact set-partitioning branch & bound, Bron-Kerbosch, candidate
// enumeration on the worked example, and the convex hull.
#include <benchmark/benchmark.h>

#include "geom/convex_hull.hpp"
#include "ilp/set_partition.hpp"
#include "mbr/candidates.hpp"
#include "mbr/cliques.hpp"
#include "mbr/placement.hpp"
#include "mbr/worked_example.hpp"
#include "util/rng.hpp"

using namespace mbrc;

namespace {

void BM_WeightedMedianPlacement(benchmark::State& state) {
  const int pins = static_cast<int>(state.range(0));
  util::Rng rng(11);
  std::vector<mbr::PinBox> boxes;
  for (int i = 0; i < pins; ++i) {
    const double x = rng.uniform_real(0, 200), y = rng.uniform_real(0, 200);
    boxes.push_back({{x, y, x + rng.uniform_real(0, 40),
                      y + rng.uniform_real(0, 40)},
                     {rng.uniform_real(0, 10), rng.uniform_real(0, 2)}});
  }
  const geom::Rect region{0, 0, 200, 200};
  for (auto _ : state)
    benchmark::DoNotOptimize(mbr::optimal_position_median(boxes, region));
}
BENCHMARK(BM_WeightedMedianPlacement)->Arg(4)->Arg(16)->Arg(64);

void BM_SetPartition(benchmark::State& state) {
  const int elements = static_cast<int>(state.range(0));
  util::Rng rng(77);
  ilp::SetPartitionProblem problem;
  problem.element_count = elements;
  for (int e = 0; e < elements; ++e)
    problem.candidates.push_back({{e}, 1.0});
  for (int c = 0; c < elements * 6; ++c) {
    ilp::SetPartitionCandidate cand;
    const int size = static_cast<int>(rng.uniform_int(2, 5));
    for (int k = 0; k < size; ++k) {
      const int e = static_cast<int>(rng.uniform_int(0, elements - 1));
      if (std::find(cand.elements.begin(), cand.elements.end(), e) ==
          cand.elements.end())
        cand.elements.push_back(e);
    }
    cand.weight = 1.0 / cand.elements.size();
    problem.candidates.push_back(std::move(cand));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(ilp::solve_set_partition(problem));
}
BENCHMARK(BM_SetPartition)->Arg(10)->Arg(20)->Arg(30);

void BM_BronKerbosch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(5);
  mbr::CompatibilityGraph graph;
  const mbr::WorkedExample example = mbr::make_worked_example();
  for (int i = 0; i < n; ++i) {
    mbr::RegisterInfo info = example.graph.node(0);
    info.footprint = geom::Rect::around(
        {rng.uniform_real(0, 100), rng.uniform_real(0, 100)}, 1.5, 0.9);
    graph.add_node(info);
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.chance(0.4)) graph.add_edge(i, j);
  graph.finalize();
  std::vector<int> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i] = i;
  for (auto _ : state)
    benchmark::DoNotOptimize(mbr::maximal_cliques(graph, nodes));
}
BENCHMARK(BM_BronKerbosch)->Arg(15)->Arg(30)->Arg(45);

void BM_CandidateEnumerationWorkedExample(benchmark::State& state) {
  const mbr::WorkedExample example = mbr::make_worked_example();
  std::vector<int> subgraph(example.graph.node_count());
  for (int i = 0; i < example.graph.node_count(); ++i) subgraph[i] = i;
  const mbr::BlockerIndex blockers(example.graph);
  for (auto _ : state)
    benchmark::DoNotOptimize(mbr::enumerate_candidates(
        example.graph, *example.library, blockers, subgraph));
}
BENCHMARK(BM_CandidateEnumerationWorkedExample);

void BM_ConvexHull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(3);
  std::vector<geom::Point> points;
  for (int i = 0; i < n; ++i)
    points.push_back({rng.uniform_real(0, 1000), rng.uniform_real(0, 1000)});
  for (auto _ : state) {
    auto copy = points;
    benchmark::DoNotOptimize(geom::convex_hull(std::move(copy)));
  }
}
BENCHMARK(BM_ConvexHull)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
