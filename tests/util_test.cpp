#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "reference_sum.hpp"
#include "util/assert.hpp"
#include "util/exact_sum.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace mbrc::util {
namespace {

TEST(Assert, PassesOnTrue) {
  EXPECT_NO_THROW(MBRC_ASSERT(1 + 1 == 2));
  EXPECT_NO_THROW(MBRC_ASSERT_MSG(true, "never shown"));
}

TEST(Assert, ThrowsWithContext) {
  try {
    MBRC_ASSERT_MSG(false, "the extra context");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the extra context"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  Rng d(43);
  bool any_diff = false;
  Rng e(42);
  for (int i = 0; i < 100; ++i) any_diff |= d() != e();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitIsReproducibleAndIndependentOfParentPosition) {
  // Same (seed, stream) -> same sub-stream, regardless of how many draws
  // the parent has made before splitting.
  Rng fresh(42);
  Rng advanced(42);
  for (int i = 0; i < 57; ++i) (void)advanced();
  Rng child_a = fresh.split(3);
  Rng child_b = advanced.split(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child_a(), child_b());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng with_split(42);
  Rng without_split(42);
  (void)with_split.split(0);
  (void)with_split.split(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(with_split(), without_split());
}

TEST(Rng, SplitStreamsAreDistinct) {
  // Different streams (and the parent itself) produce different sequences.
  Rng parent(42);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  bool s0_vs_s1 = false, s0_vs_parent = false;
  Rng parent_copy(42);
  for (int i = 0; i < 100; ++i) {
    const auto a = s0();
    s0_vs_s1 |= a != s1();
    s0_vs_parent |= a != parent_copy();
  }
  EXPECT_TRUE(s0_vs_s1);
  EXPECT_TRUE(s0_vs_parent);

  // Adjacent streams across many indices stay pairwise distinct on their
  // first draw (no structural collisions from the index arithmetic).
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t stream = 0; stream < 256; ++stream) {
    Rng child = parent.split(stream);
    first_draws.insert(child());
  }
  EXPECT_EQ(first_draws.size(), 256u);
}

TEST(Rng, SeedAccessorSurvivesDraws) {
  Rng rng(1234);
  for (int i = 0; i < 10; ++i) (void)rng();
  EXPECT_EQ(rng.seed(), 1234u);
  EXPECT_EQ(rng.split(5).seed(), Rng(1234).split(5).seed());
}

TEST(Rng, UniformIntInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 2000 draws
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealBoundsAndMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform_real(2.0, 4.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  // Burn a little CPU; elapsed must be non-decreasing.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  const double t1 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  sw.reset();
  EXPECT_LE(sw.seconds(), t1 + 1.0);
  EXPECT_NEAR(sw.milliseconds(), sw.seconds() * 1e3, 50.0);  // separate reads
}

TEST(Table, AlignsAndFormats) {
  Table t({"name", "count"});
  t.row().cell(std::string("short")).cell(42);
  t.row().cell(std::string("a-much-longer-name")).cell(7);
  t.row().cell(std::string("pct")).percent(0.2912);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("29.1 %"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell(1), AssertionError);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

double sum_of(const std::vector<double>& values) {
  ExactSum sum;
  for (double v : values) sum.add(v);
  return sum.round();
}

// The accumulator's rounding against the Shewchuk reference, bit for bit.
void expect_reference(const std::vector<double>& values) {
  const double want = oracle::correctly_rounded_sum(values);
  const double got = sum_of(values);
  EXPECT_EQ(bits_of(got), bits_of(want)) << got << " vs " << want;
}

TEST(ExactSum, EmptyAndZerosAreZero) {
  EXPECT_EQ(bits_of(ExactSum().round()), bits_of(0.0));
  EXPECT_EQ(bits_of(sum_of({-0.0})), bits_of(0.0));
  EXPECT_EQ(bits_of(sum_of({0.0, -0.0, -0.0})), bits_of(0.0));
  ExactSum sum;
  sum.add(-3.25);
  sum.subtract(-3.25);
  EXPECT_EQ(bits_of(sum.round()), bits_of(0.0));
  expect_reference({2.5, -2.5});
}

TEST(ExactSum, KeepsWhatCancellationLoses) {
  EXPECT_EQ(sum_of({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(sum_of({1.0, 1e16, -1e16}), 1.0);
  EXPECT_EQ(sum_of({1e100, 1.0, -1e100, 1e-100}), 1.0);
  // Left to right, 0.1 + 0.2 - 0.3 reads 2^-54; the exact sum of the three
  // doubles is 2^-55.
  expect_reference({0.1, 0.2, -0.3});
  EXPECT_EQ(sum_of({0.1, 0.2, -0.3}), std::ldexp(1.0, -55));
  expect_reference({1e16, 1.0, -1e16, 3.0, 1e-20});
}

TEST(ExactSum, RoundsTiesToEven) {
  const double half_ulp = std::ldexp(1.0, -53);  // of 1.0
  EXPECT_EQ(sum_of({1.0, half_ulp}), 1.0);
  const double odd = 1.0 + std::ldexp(1.0, -52);
  EXPECT_EQ(sum_of({odd, half_ulp}), 1.0 + std::ldexp(1.0, -51));
  // Anything below the tie, however small, breaks it upward.
  EXPECT_EQ(sum_of({1.0, half_ulp, std::ldexp(1.0, -1000)}), odd);
  EXPECT_EQ(sum_of({1.0, half_ulp, -std::ldexp(1.0, -1000)}), 1.0);
  expect_reference({1.0, half_ulp, std::ldexp(1.0, -1000)});
  expect_reference({-1.0, -half_ulp, std::ldexp(1.0, -1000)});
  // A carry out of the kept bits moves the exponent.
  const double below_two = 2.0 - std::ldexp(1.0, -52);
  EXPECT_EQ(sum_of({below_two, std::ldexp(1.0, -53)}), 2.0);
}

TEST(ExactSum, Subnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(sum_of({tiny, tiny, tiny}), 3 * tiny);
  EXPECT_EQ(sum_of({min_normal, -tiny}), min_normal - tiny);
  EXPECT_EQ(sum_of({min_normal - tiny, tiny}), min_normal);
  EXPECT_EQ(sum_of({-tiny, tiny}), 0.0);
  expect_reference({min_normal / 3, min_normal / 7, -tiny, min_normal});
  expect_reference({1.0, tiny, -1.0});
  EXPECT_EQ(sum_of({1.0, tiny, -1.0}), tiny);
}

TEST(ExactSum, NearTheTopOfTheRange) {
  expect_reference({1e300, 3e299, -7e299, 1e-300, 2.5e300});
  expect_reference({1e308, -1e308, 1e292, 1.0});
  const double max = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  // The limbs hold a sum past the range; only the rounding overflows.
  EXPECT_EQ(sum_of({max, max}), inf);
  EXPECT_EQ(sum_of({-max, -max}), -inf);
  ExactSum sum;
  sum.add(max);
  sum.add(max);
  sum.subtract(max);
  EXPECT_EQ(sum.round(), max);
  // max plus half its ulp is a tie that rounds to even, past the range.
  EXPECT_EQ(sum_of({max, std::ldexp(1.0, 970)}), inf);
  EXPECT_EQ(sum_of({max, std::ldexp(1.0, 969)}), max);
}

TEST(ExactSum, InfinitiesAndNansAreCounted) {
  const double inf = std::numeric_limits<double>::infinity();
  ExactSum sum;
  sum.add(2.0);
  sum.add(-inf);
  EXPECT_EQ(sum.round(), -inf);
  sum.add(inf);
  EXPECT_TRUE(std::isnan(sum.round()));
  sum.subtract(-inf);
  EXPECT_EQ(sum.round(), inf);
  sum.subtract(inf);
  sum.add(std::nan(""));
  EXPECT_TRUE(std::isnan(sum.round()));
  sum.subtract(std::nan(""));
  EXPECT_EQ(sum.round(), 2.0);
}

// A million random adds and removes over values from subnormal to 1e300:
// the sum equals the reference over the values present at every
// checkpoint, and removing the rest in another order returns it to +0.0.
TEST(ExactSum, RandomAddsAndRemovesReturnToZero) {
  Rng rng(0x5e5a'0001);
  const auto draw = [&] {
    const double mantissa = rng.uniform_real(0.5, 1.0);
    const int exponent = static_cast<int>(rng.uniform_int(-1080, 998));
    const double v = std::ldexp(mantissa, exponent);
    return rng.chance(0.5) ? -v : v;
  };
  ExactSum sum;
  std::vector<double> present;
  constexpr int kOps = 1'000'000;
  int removes = 0;
  for (int op = 1; op <= kOps; ++op) {
    if (present.empty() || rng.chance(0.55)) {
      present.push_back(draw());
      sum.add(present.back());
    } else {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(present.size()) - 1));
      sum.subtract(present[k]);
      present[k] = present.back();
      present.pop_back();
      ++removes;
    }
    if (op % 125'000 == 0) {
      SCOPED_TRACE("op " + std::to_string(op));
      const double want = oracle::correctly_rounded_sum(present);
      ASSERT_EQ(bits_of(sum.round()), bits_of(want));
    }
  }
  ASSERT_GT(removes, kOps / 3);
  ASSERT_GT(present.size(), 10'000u);
  while (!present.empty()) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(present.size()) - 1));
    sum.subtract(present[k]);
    present[k] = present.back();
    present.pop_back();
  }
  EXPECT_EQ(bits_of(sum.round()), bits_of(0.0));
}

}  // namespace
}  // namespace mbrc::util
