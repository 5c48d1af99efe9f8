// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// the same invariant checked across a grid of seeds, sizes and profiles.
#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "ilp/set_partition.hpp"
#include "mbr/flow.hpp"
#include "mbr/placement.hpp"
#include "solver_oracles.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

// ---------------------------------------------------------------------
// Set partitioning: the specialized solver matches exhaustive enumeration
// on random instances of growing size.
struct SpParams {
  std::uint64_t seed;
  int elements;
  int extra_candidates;
};

class SetPartitionSweep : public ::testing::TestWithParam<SpParams> {};

TEST_P(SetPartitionSweep, MatchesExhaustiveEnumeration) {
  const SpParams params = GetParam();
  util::Rng rng(params.seed);

  ilp::SetPartitionProblem problem;
  problem.element_count = params.elements;
  for (int e = 0; e < params.elements; ++e)
    problem.candidates.push_back({{e}, rng.uniform_real(0.5, 1.5)});
  for (int c = 0; c < params.extra_candidates; ++c) {
    ilp::SetPartitionCandidate cand;
    const int size =
        static_cast<int>(rng.uniform_int(2, std::min(5, params.elements)));
    std::vector<int> pool(params.elements);
    for (int e = 0; e < params.elements; ++e) pool[e] = e;
    for (int k = 0; k < size; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      cand.elements.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    cand.weight = rng.uniform_real(0.1, 2.0);
    problem.candidates.push_back(std::move(cand));
  }

  const ilp::SetPartitionResult fast = ilp::solve_set_partition(problem);
  ASSERT_TRUE(fast.feasible);

  const oracle::PartitionOptimum exact =
      oracle::exhaustive_min_partition(problem);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(fast.objective, exact.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Random, SetPartitionSweep,
    ::testing::Values(SpParams{1, 4, 6}, SpParams{2, 6, 10},
                      SpParams{3, 8, 14}, SpParams{4, 10, 20},
                      SpParams{5, 12, 24}, SpParams{6, 14, 30},
                      SpParams{7, 9, 40}, SpParams{8, 16, 16}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.elements);
    });

// ---------------------------------------------------------------------
// Placement: the weighted-median solver reaches the breakpoint minimum of
// the paper's objective across pin counts, and beats random probes.
class PlacementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlacementSweep, MedianEqualsBreakpointMinimum) {
  const int pins = GetParam();
  util::Rng rng(1000 + pins);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<mbr::PinBox> boxes;
    for (int i = 0; i < pins; ++i) {
      const double x = rng.uniform_real(0, 250);
      const double y = rng.uniform_real(0, 250);
      boxes.push_back({{x, y, x + rng.uniform_real(0, 50),
                        y + rng.uniform_real(0, 50)},
                       {rng.uniform_real(0, 15), rng.uniform_real(0, 2)}});
    }
    const geom::Rect region{0, 0, 300, 300};
    const double f_median = mbr::placement_objective(
        boxes, mbr::optimal_position_median(boxes, region));
    ASSERT_NEAR(f_median, oracle::breakpoint_min_placement(boxes, region),
                1e-6)
        << "pins=" << pins;
    for (int probe = 0; probe < 20; ++probe) {
      const geom::Point p{rng.uniform_real(0, 300), rng.uniform_real(0, 300)};
      ASSERT_GE(mbr::placement_objective(boxes, p) + 1e-9, f_median);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PinCounts, PlacementSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// Flow: the headline invariants hold across profiles and seeds.
struct FlowParams {
  std::uint64_t seed;
  int registers;
  double eight_bit_fraction;
};

class FlowSweep : public ::testing::TestWithParam<FlowParams> {};

TEST_P(FlowSweep, InvariantsHold) {
  const FlowParams params = GetParam();
  const lib::Library library = lib::make_default_library();

  benchgen::DesignProfile profile;
  profile.seed = params.seed;
  profile.register_cells = params.registers;
  profile.comb_per_register = 4.0;
  const double rest = 1.0 - params.eight_bit_fraction;
  profile.width_mix = {{1, rest * 0.5},
                       {2, rest * 0.3},
                       {4, rest * 0.2},
                       {8, params.eight_bit_fraction}};

  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  const mbr::FlowResult r =
      mbr::run_composition_flow(generated.design, options);
  generated.design.check_consistency();

  // Register accounting.
  EXPECT_EQ(r.before.design.total_registers - r.registers_merged +
                r.mbrs_created,
            r.after.design.total_registers);
  // Registers never increase; clock tree never grows.
  EXPECT_LE(r.after.design.total_registers, r.before.design.total_registers);
  EXPECT_LE(r.after.clock_cap, r.before.clock_cap * 1.0001);
  // Area essentially flat (5% incomplete rule is per-MBR, tiny in total).
  EXPECT_LE(r.after.design.area, r.before.design.area * 1.005);
  // Timing not collapsed (small adversarial profiles carry more noise than
  // the calibrated D1..D5 runs, hence the looser band here).
  EXPECT_GE(r.after.tns, r.before.tns * 1.15 - 0.5);
  EXPECT_TRUE(r.legalization.success);
  // Hold stays clean (hold-aware skew + sizing).
  EXPECT_EQ(r.after.failing_hold_endpoints, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FlowSweep,
    ::testing::Values(FlowParams{11, 400, 0.05}, FlowParams{12, 400, 0.40},
                      FlowParams{13, 700, 0.10}, FlowParams{14, 700, 0.55},
                      FlowParams{15, 1000, 0.25}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_r" +
             std::to_string(info.param.registers);
    });

// ---------------------------------------------------------------------
// Weight formula: structural properties over the full (b, n) grid.
struct WeightParams {
  int bits;
};
class WeightSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightSweep, MonotoneAndDominated) {
  const int b = GetParam();
  // Clean weight decreases with size.
  if (b > 1)
    EXPECT_LT(mbr::candidate_weight(b, 0), mbr::candidate_weight(b - 1, 0));
  // Weight grows with blockers until it hits infinity at n >= b.
  double previous = mbr::candidate_weight(b, 0);
  for (int n = 1; n < b; ++n) {
    const double w = mbr::candidate_weight(b, n);
    EXPECT_GT(w, previous);
    previous = w;
  }
  EXPECT_TRUE(std::isinf(mbr::candidate_weight(b, b)));
  // A blocked candidate never beats its singleton decomposition: the worst
  // case is b single-bit members costing b in total.
  for (int n = 1; n < b; ++n)
    EXPECT_GT(mbr::candidate_weight(b, n), static_cast<double>(b));
}

INSTANTIATE_TEST_SUITE_P(Bits, WeightSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace mbrc
