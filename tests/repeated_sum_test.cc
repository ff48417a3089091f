// RepeatedSum against the loop it replaces, bit for bit, over a million
// SplitMix64-drawn cases aimed at the places the kernel's argument is
// delicate: half-ulp ties, sums just under a binade top, s < d, zero and
// negative s, steps under half an ulp, subnormal steps, k = 0 and long
// runs of up to a million additions.

#include "src/util/repeated_sum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/util/rng.h"

namespace litegpu {
namespace {

double LoopSum(double s, double d, uint64_t k) {
  for (uint64_t j = 0; j < k; ++j) {
    s += d;
  }
  return s;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Uniform in [0, 1) from 53 random bits.
double Unit(SplitMix64& rng) { return static_cast<double>(rng.Next() >> 11) * 0x1p-53; }

// Uniform integer in [lo, hi].
int64_t Between(SplitMix64& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(hi - lo + 1));
}

struct Case {
  double s;
  double d;
  uint64_t k;
};

// One case of the named shape; `ulp` is 2^(e - 52) for s's binade 2^e.
Case Draw(SplitMix64& rng) {
  const int e = static_cast<int>(Between(rng, -30, 12));
  const double top = std::ldexp(1.0, e + 1);
  const double ulp = std::ldexp(1.0, e - 52);
  const double s_in_binade = std::ldexp(1.0 + Unit(rng), e);
  // Run lengths log-uniform up to 2048 steps, now and then up to a million.
  uint64_t k = static_cast<uint64_t>(Between(rng, 0, int64_t{1} << Between(rng, 0, 11)));
  if (rng.Next() % 4096 == 0) {
    k = static_cast<uint64_t>(Between(rng, 0, 1000000));
  }
  switch (rng.Next() % 10) {
    case 0: {  // engine-like: clock times and step durations
      double d = 1e-3 + 0.1 * Unit(rng);
      return {200.0 * Unit(rng), d, k};
    }
    case 1: {  // d an odd number of half ulps of s: a tie every step
      double d = (2.0 * static_cast<double>(Between(rng, 0, 1 << 20)) + 1.0) * (ulp / 2);
      return {s_in_binade, d, k};
    }
    case 2: {  // s a few ulps under the binade top, crossing it at once
      double s = top - static_cast<double>(Between(rng, 1, 64)) * ulp;
      double d = std::ldexp(Unit(rng), e - static_cast<int>(Between(rng, 0, 40)));
      return {s, d, k};
    }
    case 3: {  // s < d
      double d = std::ldexp(1.0 + Unit(rng), e);
      return {d * Unit(rng), d, k};
    }
    case 4: {  // s = +0 or -0
      double d = std::ldexp(1.0 + Unit(rng), e - 20);
      return {rng.Next() % 2 == 0 ? 0.0 : -0.0, d, k};
    }
    case 5: {  // negative s that reaches zero within the run, or not
      double d = std::ldexp(1.0 + Unit(rng), e - 20);
      return {-d * static_cast<double>(k + 1) * 2.0 * Unit(rng), d, k};
    }
    case 6: {  // d under half an ulp of s (a multiple of it, or not)
      double d = rng.Next() % 2 == 0 ? ulp / 2 * Unit(rng)
                                     : ulp / 4 * static_cast<double>(Between(rng, 1, 2));
      return {s_in_binade, d, k};
    }
    case 7: {  // subnormal d; s subnormal, the lowest normal binades, or any
      double d = FromBits(static_cast<uint64_t>(Between(rng, 1, (int64_t{1} << 52) - 1)));
      double s = 0.0;
      switch (rng.Next() % 3) {
        case 0:
          s = FromBits(static_cast<uint64_t>(Between(rng, 0, (int64_t{1} << 52) - 1)));
          break;
        case 1:
          s = std::ldexp(1.0 + Unit(rng), -1022 + static_cast<int>(Between(rng, 0, 60)));
          break;
        default:
          s = s_in_binade;
      }
      return {s, d, k};
    }
    case 8: {  // d whose rounded step is a small number of ulps
      double d = static_cast<double>(Between(rng, 1, 1 << 12)) * ulp +
                 (Unit(rng) - 0.5) * ulp;
      return {s_in_binade, d, k};
    }
    default: {  // d from a wide range of scales against s
      double d = std::ldexp(1.0 + Unit(rng), e - static_cast<int>(Between(rng, -2, 60)));
      return {s_in_binade, d, k};
    }
  }
}

TEST(RepeatedSum, MatchesTheLoopBitForBitOnAMillionDrawnCases) {
  SplitMix64 rng(0x5EEDF00DULL);
  constexpr int kCases = 1 << 20;
  int mismatches = 0;
  for (int n = 0; n < kCases; ++n) {
    Case c = Draw(rng);
    double want = LoopSum(c.s, c.d, c.k);
    double got = RepeatedSum(c.s, c.d, c.k);
    if (Bits(got) != Bits(want)) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << "case " << n << ": s=" << c.s << " d=" << c.d
                      << " k=" << c.k << " loop=" << want << " kernel=" << got;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedSum, EdgeCases) {
  // k = 0 returns s untouched, including -0.
  EXPECT_EQ(Bits(RepeatedSum(-0.0, 1.0, 0)), Bits(-0.0));
  EXPECT_EQ(RepeatedSum(3.5, 0.25, 0), 3.5);
  // -0 + 0 is +0: the first addition must happen even when s never moves.
  EXPECT_EQ(Bits(RepeatedSum(-0.0, 0.0, 100)), Bits(0.0));
  // A step under half an ulp never moves s.
  EXPECT_EQ(RepeatedSum(1.0, 0x1p-54, 1000000), 1.0);
  // Exactly half an ulp at an even s: round-to-even keeps s.
  EXPECT_EQ(RepeatedSum(1.0, 0x1p-53, 1000), 1.0);
  // ... at an odd s: one step up to the even neighbour, then stuck there.
  EXPECT_EQ(RepeatedSum(1.0 + 0x1p-52, 0x1p-53, 1000), 1.0 + 0x1p-51);
  // Runs crossing several binades match the loop.
  for (uint64_t k : {1ull, 15ull, 16ull, 17ull, 1000ull, 100000ull}) {
    EXPECT_EQ(Bits(RepeatedSum(0.75, 0.1, k)), Bits(LoopSum(0.75, 0.1, k))) << k;
    EXPECT_EQ(Bits(RepeatedSum(63.99, 0.0173, k)), Bits(LoopSum(63.99, 0.0173, k))) << k;
  }
  // Negative, infinite and NaN steps take the loop's path.
  EXPECT_EQ(RepeatedSum(10.0, -0.5, 40), LoopSum(10.0, -0.5, 40));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RepeatedSum(1.0, inf, 40), inf);
  EXPECT_EQ(RepeatedSum(inf, 1.0, 40), inf);
  EXPECT_TRUE(std::isnan(RepeatedSum(1.0, std::nan(""), 40)));
  // The largest finite values overflow to infinity as the loop does.
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(RepeatedSum(big / 2, big / 8, 40), LoopSum(big / 2, big / 8, 40));
}

}  // namespace
}  // namespace litegpu
