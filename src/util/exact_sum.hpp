// Exact summation of doubles.
//
// ExactSum keeps the exact sum of every double added to it (minus every
// double subtracted) in integer limbs, after Neal's small superaccumulator
// (arXiv 1505.05571), and rounds it to the nearest double, ties to even,
// only when read. Every finite double is an integer multiple of 2^-1074 of
// at most 53 bits, so adding one adds its mantissa, split at 32-bit limb
// boundaries, into at most three 64-bit signed limbs. The limbs keep their
// carries in their upper bits and are normalized every 2^30 operations,
// before any limb can overflow. Adding and subtracting are therefore exact
// and O(1), and the rounded sum depends only on the multiset of values
// added, not on their order.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mbrc::util {

class ExactSum {
public:
  void add(double x) { accumulate(x, 1); }
  /// Removes an `x` that was added before. For a finite `x` this is the same
  /// as adding `-x`; infinities and NaNs are counted, and this uncounts one.
  void subtract(double x) { accumulate(x, -1); }
  void clear() { *this = ExactSum(); }

  /// The exact sum rounded to nearest, ties to even. An exact zero is +0.0;
  /// a sum beyond the double range is an infinity. With infinities or NaNs
  /// counted the result is IEEE addition's: NaN for a NaN or for both signs
  /// of infinity, otherwise the infinity.
  double round() const;

private:
  static constexpr int kLimbBits = 32;
  static constexpr std::int64_t kLimbMask = (std::int64_t{1} << kLimbBits) - 1;
  // Bit 0 of limb 0 weighs 2^-1074. A mantissa starts at most at bit 2045
  // (limb 63) and spans three limbs; the last limb takes carries out of the
  // top and the sign.
  static constexpr int kLimbs = 67;
  // Bit positions at and above this are 2^1024 and beyond.
  static constexpr int kOverflowBit = 2098;
  static constexpr std::int64_t kMaxPending = std::int64_t{1} << 30;

  using Limbs = std::array<std::int64_t, kLimbs>;

  void accumulate(double x, int sign);
  /// Moves each limb's carry into the next one: afterwards every limb but
  /// the last lies in [0, 2^32) and the last holds the sign.
  static void carry(Limbs& limbs);

  Limbs limbs_{};
  std::int64_t pending_ = 0;  // adds and subtracts since the last carry
  std::int64_t pos_inf_ = 0;
  std::int64_t neg_inf_ = 0;
  std::int64_t nans_ = 0;
};

inline void ExactSum::accumulate(double x, int sign) {
  if (!std::isfinite(x)) {
    (std::isnan(x) ? nans_ : x > 0 ? pos_inf_ : neg_inf_) += sign;
    return;
  }
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased != 0) mantissa |= std::uint64_t{1} << 52;
  if (mantissa == 0) return;
  // Position of the mantissa's bit 0; subnormals share the lowest exponent.
  const int offset = std::max(biased, 1) - 1;
  const int limb = offset / kLimbBits;
  const int shift = offset % kLimbBits;
  const std::uint64_t rest = mantissa >> (kLimbBits - shift);
  const std::int64_t s = (bits >> 63) != 0 ? -sign : sign;
  limbs_[limb] += s * static_cast<std::int64_t>((mantissa << shift) & kLimbMask);
  limbs_[limb + 1] += s * static_cast<std::int64_t>(rest & kLimbMask);
  limbs_[limb + 2] += s * static_cast<std::int64_t>(rest >> kLimbBits);
  if (++pending_ == kMaxPending) {
    carry(limbs_);
    pending_ = 0;
  }
}

inline void ExactSum::carry(Limbs& limbs) {
  for (int i = 0; i + 1 < kLimbs; ++i) {
    limbs[i + 1] += limbs[i] >> kLimbBits;  // floor division by 2^32
    limbs[i] &= kLimbMask;
  }
}

inline double ExactSum::round() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (nans_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0))
    return std::numeric_limits<double>::quiet_NaN();
  if (pos_inf_ != 0) return kInf;
  if (neg_inf_ != 0) return -kInf;

  Limbs l = limbs_;
  carry(l);
  const bool negative = l[kLimbs - 1] < 0;
  if (negative) {
    for (std::int64_t& v : l) v = -v;
    carry(l);
  }
  int top = kLimbs - 1;
  while (top >= 0 && l[top] == 0) --top;
  if (top < 0) return 0.0;
  const double sign = negative ? -1.0 : 1.0;
  const int high = top * kLimbBits +
                   std::bit_width(static_cast<std::uint64_t>(l[top])) - 1;
  if (high >= kOverflowBit) return sign * kInf;

  const auto limb = [&](int k) {
    return k < kLimbs ? static_cast<std::uint64_t>(l[k]) : std::uint64_t{0};
  };
  // The 64 bits of the magnitude from bit position `p` up.
  const auto window = [&](int p) {
    const int i = p / kLimbBits;
    const int s = p % kLimbBits;
    std::uint64_t w = limb(i) >> s | limb(i + 1) << (kLimbBits - s);
    if (s > 0) w |= limb(i + 2) << (2 * kLimbBits - s);
    return w;
  };
  // Fewer than 54 bits: exact as a double (a subnormal when below 2^-1022).
  if (high < 53)
    return sign * std::ldexp(static_cast<double>(window(0)), -1074);

  // Keep the top 53 bits; round on the guard bit below them and the sticky
  // OR of everything lower.
  int low = high - 52;
  std::uint64_t kept = window(low) & ((std::uint64_t{1} << 53) - 1);
  const int guard = low - 1;
  const bool guard_bit = (limb(guard / kLimbBits) >> (guard % kLimbBits)) & 1;
  bool sticky = (limb(guard / kLimbBits) &
                 ((std::uint64_t{1} << (guard % kLimbBits)) - 1)) != 0;
  for (int k = 0; k < guard / kLimbBits && !sticky; ++k) sticky = l[k] != 0;
  if (guard_bit && (sticky || (kept & 1) != 0)) {
    if (++kept == std::uint64_t{1} << 53) {
      kept >>= 1;
      ++low;
    }
  }
  if (low + 52 >= kOverflowBit) return sign * kInf;
  return sign * std::ldexp(static_cast<double>(kept), low - 1074);
}

}  // namespace mbrc::util
