// Fixed-size worker pool powering the design-space sweeps.
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

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

namespace litegpu {

// Resolves a user-facing threads knob: >= 1 is taken literally, <= 0 means
// "use the hardware concurrency" (never less than 1).
int ResolveThreads(int requested);

// Pool workers this process has spawned so far, over every ThreadPool
// (the transient pools of ParallelFor / ParallelMap included). Read-only:
// tests diff it around a call to check that a composite driver fans out
// once rather than once per inner sweep.
uint64_t ThreadPoolWorkersSpawned();

class ThreadPool {
 public:
  // Spawns `num_threads` workers (resolved via ResolveThreads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; the future resolves when it finishes (or rethrows the
  // task's exception).
  std::future<void> Submit(std::function<void()> fn);

  // Runs fn(i) for every i in [0, n) across the workers; the calling thread
  // blocks until all iterations finish (it does not run iterations itself,
  // so ThreadPool(N) means exactly N compute lanes). Iterations run in
  // unspecified order; callers keep determinism by writing only to
  // per-index state. Every index runs even when some throw; afterwards the
  // exception from the lowest index is rethrown (deterministically,
  // regardless of which worker hit it first).
  void ParallelFor(int n, const std::function<void(int)>& fn);

 private:
  struct Impl;
  void WorkerLoop();
  void Shutdown();  // signal stop and join all spawned workers

  std::vector<std::thread> workers_;
  Impl* impl_;  // queue + synchronization (defined in thread_pool.cc)
};

// One-shot helper: runs fn(i) for i in [0, n) on `threads` workers. Serial
// (inline, no pool) when the resolved thread count is 1 or n <= 1, with the
// same exception semantics as the pooled path (all indices run; lowest-index
// exception rethrown).
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
