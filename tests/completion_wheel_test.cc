// CompletionWheel correctness: against a std::priority_queue oracle, the
// wheel must report the same earliest finish step after every operation,
// pop the same multiset at every step it reaches, and drain the same
// entries in request order. The randomized schedule keeps exactly the
// serving core's contract: each push finishes after the current step
// count, and the step count advances by one step or jumps to the next
// finish, never past it.

#include "src/serve/completion_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <tuple>
#include <vector>

#include "src/util/rng.h"

namespace litegpu {
namespace {

constexpr uint64_t kSlots = CompletionWheel::kSlots;

struct EarlierOnTop {
  bool operator()(const Completion& a, const Completion& b) const {
    return std::tie(a.finish_step, a.request) > std::tie(b.finish_step, b.request);
  }
};
using Oracle = std::priority_queue<Completion, std::vector<Completion>, EarlierOnTop>;

using Keys = std::vector<std::tuple<int, uint64_t, int>>;

// (request, finish step, class) of each entry, in the given order.
Keys InOrder(const std::vector<Completion>& cs) {
  Keys keys;
  for (const Completion& c : cs) {
    keys.emplace_back(c.request, c.finish_step, c.cls);
  }
  return keys;
}

Keys ByRequest(const std::vector<Completion>& cs) {
  Keys keys = InOrder(cs);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Empties the oracle, returning its entries ascending by request.
Keys DrainOracle(Oracle& oracle) {
  std::vector<Completion> all;
  for (; !oracle.empty(); oracle.pop()) {
    all.push_back(oracle.top());
  }
  return ByRequest(all);
}

// How many steps ahead a pushed sequence finishes: the ring's edges
// (kSlots - 1 is the last ring offset, kSlots the first far one), short
// offsets that pile several sequences onto one slot, and anything up to
// three ring spans.
uint64_t DrawOffset(SplitMix64& bits) {
  switch (bits.Next() % 6) {
    case 0:
      return kSlots - 1 + bits.Next() % 3;
    case 1:
      return 1 + bits.Next() % 8;
    default:
      return 1 + bits.Next() % (3 * kSlots);
  }
}

struct Coverage {
  uint64_t wraps = 0;        // ring spans the step count crossed
  uint64_t far_pops = 0;     // steps popping an entry pushed to the far heap
  uint64_t shared_pops = 0;  // steps popping more than one entry
  int drains = 0;
  int clears = 0;
};

// One trial: random pushes, advances by one step or to the next finish,
// and now and then a drain (the kill path) or a clear (a new point reusing
// the wheel).
void RunTrial(uint64_t seed, int ops, Coverage& cov) {
  SplitMix64 bits(seed);
  CompletionWheel wheel;
  Oracle oracle;
  uint64_t step = 0;
  int next_request = 0;
  std::vector<bool> pushed_far;  // by request
  std::vector<Completion> popped, expected;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op << " step " << step);
    uint64_t action = bits.Next() % 100;
    if (action < 45 || oracle.empty()) {
      int n = 1 + static_cast<int>(bits.Next() % 4);
      for (int k = 0; k < n; ++k) {
        Completion c{step + DrawOffset(bits), next_request++, static_cast<int>(bits.Next() % 3)};
        pushed_far.push_back(c.finish_step - step >= kSlots);
        wheel.Push(step, c);
        oracle.push(c);
      }
    } else if (action < 97) {
      // Single steps often land on no finish; jumps always land on one.
      uint64_t to = action < 70 ? step + 1 : oracle.top().finish_step;
      cov.wraps += to / kSlots - step / kSlots;
      step = to;
      popped.clear();
      wheel.PopStep(step, [&](const Completion& c) { popped.push_back(c); });
      expected.clear();
      while (!oracle.empty() && oracle.top().finish_step == step) {
        expected.push_back(oracle.top());
        oracle.pop();
      }
      ASSERT_EQ(ByRequest(popped), ByRequest(expected));
      cov.far_pops += std::any_of(expected.begin(), expected.end(), [&](const Completion& c) {
        return pushed_far[static_cast<size_t>(c.request)];
      });
      cov.shared_pops += expected.size() > 1;
    } else if (action < 99) {
      ASSERT_EQ(InOrder(wheel.Drain()), DrainOracle(oracle));
      ++cov.drains;
    } else {
      wheel.Clear();
      oracle = Oracle();
      ++cov.clears;
    }
    if (!oracle.empty()) {
      ASSERT_EQ(wheel.NextFinish(step), oracle.top().finish_step);
    }
  }
  // Whatever is left drains in request order.
  ASSERT_EQ(InOrder(wheel.Drain()), DrainOracle(oracle));
}

TEST(CompletionWheel, MatchesPriorityQueueOracle) {
  Coverage cov;
  SplitMix64 seeds(0xC0DE5EED);
  for (int trial = 0; trial < 40; ++trial) {
    RunTrial(seeds.Next(), 4000, cov);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The randomized schedule really wrapped the ring, let the far heap lead,
  // shared slots between entries, and reused drained and cleared wheels.
  EXPECT_GE(cov.wraps, 1000u);
  EXPECT_GE(cov.far_pops, 2000u);
  EXPECT_GE(cov.shared_pops, 1000u);
  EXPECT_GE(cov.drains, 1000);
  EXPECT_GE(cov.clears, 500);
}

}  // namespace
}  // namespace litegpu
