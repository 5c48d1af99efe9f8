#include <gtest/gtest.h>

#include "ilp/set_partition.hpp"
#include "solver_oracles.hpp"
#include "util/rng.hpp"

namespace mbrc::ilp {
namespace {

TEST(SetPartition, PicksCheapestExactCover) {
  SetPartitionProblem p;
  p.element_count = 3;
  p.candidates = {{{0}, 1.0}, {{1}, 1.0},      {{2}, 1.0},
                  {{0, 1}, 1.5}, {{1, 2}, 1.1}, {{0, 1, 2}, 2.6}};
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 2.1, 1e-9);  // {0} + {1,2}
  EXPECT_EQ(r.chosen, (std::vector<int>{0, 4}));
}

TEST(SetPartition, InfeasibleWithoutFullCover) {
  SetPartitionProblem p;
  p.element_count = 2;
  p.candidates = {{{0}, 1.0}};  // element 1 uncoverable
  EXPECT_FALSE(solve_set_partition(p).feasible);
}

TEST(SetPartition, OverlapForcesSingletons) {
  // The only multi-element candidates overlap, so one of them plus
  // singletons is optimal.
  SetPartitionProblem p;
  p.element_count = 3;
  p.candidates = {{{0}, 1.0},    {{1}, 1.0},    {{2}, 1.0},
                  {{0, 1}, 0.4}, {{1, 2}, 0.5}};
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 1.4, 1e-9);  // {0,1} + {2}
}

TEST(SetPartition, EmptyProblemIsTriviallyFeasible) {
  const SetPartitionResult r = solve_set_partition({});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 0.0);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(SetPartition, RejectsDuplicateElementInCandidate) {
  SetPartitionProblem p;
  p.element_count = 2;
  p.candidates = {{{0, 0}, 1.0}};
  EXPECT_THROW(solve_set_partition(p), util::AssertionError);
}

// Build a random set-partition instance. With `singletons` every element
// also gets its own candidate, which guarantees feasibility; without them
// the instance may have no exact cover at all.
SetPartitionProblem random_instance(util::Rng& rng, int elements,
                                    int extra_candidates,
                                    bool singletons = true) {
  SetPartitionProblem p;
  p.element_count = elements;
  if (singletons)
    for (int e = 0; e < elements; ++e)
      p.candidates.push_back({{e}, rng.uniform_real(0.5, 1.5)});
  for (int c = 0; c < extra_candidates; ++c) {
    SetPartitionCandidate cand;
    const int size =
        static_cast<int>(rng.uniform_int(2, std::min(4, elements)));
    std::vector<int> pool(elements);
    for (int e = 0; e < elements; ++e) pool[e] = e;
    for (int k = 0; k < size; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      cand.elements.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    cand.weight = rng.uniform_real(0.2, 2.0);
    p.candidates.push_back(std::move(cand));
  }
  return p;
}

// The fast solver agrees with exhaustive enumeration on feasibility, and a
// feasible answer is an exact cover whose weight is the optimum.
void expect_matches_oracle(const SetPartitionProblem& p, int trial) {
  const SetPartitionResult fast = solve_set_partition(p);
  const oracle::PartitionOptimum exact = oracle::exhaustive_min_partition(p);
  ASSERT_EQ(fast.feasible, exact.feasible) << "trial " << trial;
  if (!fast.feasible) return;
  EXPECT_NEAR(fast.objective, exact.objective, 1e-9) << "trial " << trial;

  std::vector<int> cover(p.element_count, 0);
  double weight = 0.0;
  for (int c : fast.chosen) {
    weight += p.candidates[c].weight;
    for (int e : p.candidates[c].elements) ++cover[e];
  }
  EXPECT_NEAR(weight, fast.objective, 1e-9) << "trial " << trial;
  for (int e = 0; e < p.element_count; ++e)
    EXPECT_EQ(cover[e], 1) << "trial " << trial << " element " << e;
}

TEST(SetPartition, MatchesExhaustiveEnumeration) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const SetPartitionProblem p =
        random_instance(rng, static_cast<int>(rng.uniform_int(3, 8)),
                        static_cast<int>(rng.uniform_int(2, 10)));
    expect_matches_oracle(p, trial);
  }

  // Without singletons some instances have no exact cover; both outcomes
  // must come up for the comparison to cover infeasibility.
  util::Rng bare(2025);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const SetPartitionProblem p =
        random_instance(bare, static_cast<int>(bare.uniform_int(3, 8)),
                        static_cast<int>(bare.uniform_int(2, 14)),
                        /*singletons=*/false);
    expect_matches_oracle(p, trial);
    ++(oracle::exhaustive_min_partition(p).feasible ? feasible : infeasible);
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

}  // namespace
}  // namespace mbrc::ilp
