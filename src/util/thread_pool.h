// The one fan-out primitive powering the design-space sweeps.
//
// The sweep layers (configuration search, catalog studies, Monte-Carlo
// reliability) are embarrassingly parallel over independent indices, so the
// contract here is deliberately narrow: run fn(i) for every i in [0, n),
// write results into per-index slots, and combine them in index order
// afterwards. That makes every sweep bit-identical at any thread count —
// scheduling order never leaks into results.
//
// `threads <= 0` resolves to the hardware concurrency; `threads == 1` (or
// n <= 1) runs inline on the calling thread, restoring the serial path
// exactly.
//
// Nesting: while a ParallelFor over two or more indices runs its body, any
// ParallelFor that body calls runs inline on the same thread, so a sweep
// inside a sweep never starts lanes of its own. A one-index call leaves the
// body free to fan out.

#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace litegpu {

// Resolves a user-facing threads knob: >= 1 is taken literally, <= 0 means
// "use the hardware concurrency" (never less than 1).
int ResolveThreads(int requested);

// Lanes ParallelFor has started so far in this process. Read-only: tests
// diff it around a call to check that a composite driver fans out once
// rather than once per inner sweep.
uint64_t ParallelForLanesStarted();

// Runs fn(i) for every i in [0, n) on min(ResolveThreads(threads), n)
// lanes, each a std::thread taking indices from a shared counter; the
// calling thread only waits. One lane, or a call nested in another fan-out,
// runs inline. Iterations run in unspecified order; callers keep
// determinism by writing only per-index state. Every index runs even when
// some throw; afterwards the exception from the lowest index is rethrown,
// whichever lane hit it first.
void ParallelFor(int threads, int n, const std::function<void(int)>& fn);

// Maps i -> fn(i) into a vector collected in index order. T must be
// default-constructible. Deterministic at any thread count.
template <typename T, typename Fn>
std::vector<T> ParallelMap(int threads, int n, const Fn& fn) {
  // std::vector<bool> packs neighbors into shared bytes, so concurrent
  // per-index writes would race; use std::vector<char> or a wrapper.
  static_assert(!std::is_same<T, bool>::value,
                "ParallelMap<bool> races on vector<bool>'s packed storage");
  std::vector<T> out(static_cast<size_t>(n > 0 ? n : 0));
  ParallelFor(threads, n, [&](int i) { out[static_cast<size_t>(i)] = fn(i); });
  return out;
}

}  // namespace litegpu
