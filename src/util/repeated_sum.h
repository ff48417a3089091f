// RepeatedSum(s, d, k): exactly what `for (j < k) s += d;` returns, bit for
// bit, in O(binades crossed) work instead of k additions.
//
// Why it is exact. Let s > 0 lie in the binade [2^e, 2^(e+1)), whose
// doubles are the multiples of one ulp u. While a sum stays below the
// binade's top, round-to-nearest lands s + d on the multiple of u nearest
// to it. As s is itself a multiple of u, that is s + r, where r is d
// rounded to a multiple of u: the same r from every s in the binade, unless
// d lies exactly half way between two multiples (a tie, which round-to-even
// breaks by the parity of s, so r alternates). The first step measures
// r = (s + d) - s, exact by Sterbenz's lemma since both terms lie in
// [2^e, 2^(e+1)]. Then m more steps that stay below the top land exactly
// on s + m * r: m * r is an integer below 2^53 times u, so neither the
// product nor the sum rounds.
//
// Single additions cover the rest: small k (the plain loop is faster),
// s < d (which also takes in zero, negative and NaN s), subnormal s or s in
// the top binade, the step that crosses into the next binade, and every
// step taken while d is a tie. When r == 0 (d under half an ulp of s), s
// never moves again, so the kernel returns at once.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace litegpu {

// Below this many additions the plain loop beats the kernel's setup
// (bench_micro_engine's BM_RepeatedSum against BM_RepeatedSumLoop).
inline constexpr uint64_t kRepeatedSumMinSteps = 16;

inline double RepeatedSum(double s, double d, uint64_t k) {
  auto from_bits = [](uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  };
  while (k >= kRepeatedSumMinSteps) {
    const double next = s + d;
    --k;
    uint64_t bits;
    std::memcpy(&bits, &s, sizeof bits);
    const uint64_t binade = (bits >> 52) & 0x7FF;  // biased exponent of s
    if (!(s >= d) || !(d > 0.0) || binade == 0 || binade >= 0x7FE) {
      s = next;
      continue;
    }
    const double top = from_bits((binade + 1) << 52);
    if (next >= top) {  // this step crosses into the next binade
      s = next;
      continue;
    }
    const double r = next - s;
    if (r == 0.0) {
      return next;
    }
    // The binade's ulp: a normal power of two, or a subnormal one for the
    // lowest 52 binades.
    const double u = from_bits(binade > 52 ? (binade - 52) << 52 : uint64_t{1} << (binade - 1));
    if (std::fabs(d - r) * 2.0 == u) {  // a tie: r alternates with parity
      s = next;
      continue;
    }
    // Steps after `next` that stay strictly below the top each add r.
    const uint64_t room = static_cast<uint64_t>((top - next) / u) - 1;
    const uint64_t m = std::min(k, room / static_cast<uint64_t>(r / u));
    s = next + static_cast<double>(m) * r;
    k -= m;
  }
  for (; k > 0; --k) {
    s += d;
  }
  return s;
}

}  // namespace litegpu
