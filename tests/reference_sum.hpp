// A correctly rounded sum of finite doubles by Shewchuk's non-overlapping
// partials with the half-even correction of Python's math.fsum. It shares
// nothing with util::ExactSum (floating-point error-free transformations
// against integer limbs), so an agreement between the two is independent
// evidence that both round the exact sum.
//
// The inputs must be finite and their partial sums must stay below the
// double range.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace mbrc::oracle {

inline double correctly_rounded_sum(const std::vector<double>& values) {
  // Non-overlapping partials, increasing in magnitude, summing exactly to
  // the values added so far.
  std::vector<double> partials;
  for (double x : values) {
    std::size_t kept = 0;
    for (double y : partials) {
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    partials.push_back(x);
  }
  // Add from the top down until the sum stops being exact; then a remainder
  // of exactly half an ulp rounds away from the top when the partials below
  // push it past the half.
  std::size_t n = partials.size();
  if (n == 0) return 0.0;
  double hi = partials[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0 && partials[n - 1] < 0) ||
                (lo > 0 && partials[n - 1] > 0))) {
    const double y = lo * 2;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

}  // namespace mbrc::oracle
