// Exact-by-construction oracles for the two paper models. They share
// neither search order nor bound with the production solvers, so an
// agreement is independent evidence of optimality.
//
//   exhaustive_min_partition  - every exact cover of a set-partition
//                               instance (Sec. 3.1 ILP), no pruning.
//   breakpoint_min_placement  - the Sec. 4.2 placement objective evaluated
//                               at every candidate breakpoint.
//
// Both are slow by design (exponential and cubic in the input size) and
// meant for the small instances the tests build.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "ilp/set_partition.hpp"
#include "mbr/placement.hpp"

namespace mbrc::oracle {

struct PartitionOptimum {
  bool feasible = false;
  double objective = 0.0;
};

namespace detail {

// Covers the lowest-index uncovered element with every candidate that
// contains it and overlaps nothing covered, then recurses.
inline void enumerate_covers(const ilp::SetPartitionProblem& problem,
                             std::vector<char>& covered, int next,
                             double cost, double& best) {
  while (next < problem.element_count && covered[next]) ++next;
  if (next == problem.element_count) {
    best = std::min(best, cost);
    return;
  }
  for (const ilp::SetPartitionCandidate& cand : problem.candidates) {
    const auto& elems = cand.elements;
    if (std::find(elems.begin(), elems.end(), next) == elems.end()) continue;
    if (std::any_of(elems.begin(), elems.end(),
                    [&](int e) { return covered[e] != 0; }))
      continue;
    for (int e : elems) covered[e] = 1;
    enumerate_covers(problem, covered, next + 1, cost + cand.weight, best);
    for (int e : elems) covered[e] = 0;
  }
}

}  // namespace detail

/// Minimum total weight over all exact covers, by plain enumeration.
inline PartitionOptimum exhaustive_min_partition(
    const ilp::SetPartitionProblem& problem) {
  std::vector<char> covered(static_cast<std::size_t>(problem.element_count),
                            0);
  double best = std::numeric_limits<double>::infinity();
  detail::enumerate_covers(problem, covered, 0, 0.0, best);
  if (best == std::numeric_limits<double>::infinity()) return {};
  return {true, best};
}

/// Minimum of mbr::placement_objective over `corner_region`. Each axis is
/// a sum of flat-valley terms (convex, piecewise linear), so its minimum
/// over an interval lies at a breakpoint `box.lo/hi - offset` clamped into
/// the interval, or at an interval bound; the cross product of those x and
/// y values therefore contains a minimizer.
inline double breakpoint_min_placement(const std::vector<mbr::PinBox>& boxes,
                                       const geom::Rect& corner_region) {
  std::vector<double> xs{corner_region.xlo, corner_region.xhi};
  std::vector<double> ys{corner_region.ylo, corner_region.yhi};
  for (const mbr::PinBox& b : boxes) {
    for (double x : {b.box.xlo - b.offset.x, b.box.xhi - b.offset.x})
      xs.push_back(std::clamp(x, corner_region.xlo, corner_region.xhi));
    for (double y : {b.box.ylo - b.offset.y, b.box.yhi - b.offset.y})
      ys.push_back(std::clamp(y, corner_region.ylo, corner_region.yhi));
  }
  double best = std::numeric_limits<double>::infinity();
  for (double x : xs)
    for (double y : ys)
      best = std::min(best, mbr::placement_objective(boxes, {x, y}));
  return best;
}

}  // namespace mbrc::oracle
