#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace litegpu {

namespace {

std::atomic<uint64_t> g_workers_spawned{0};

// Set on a thread while it runs the body of a ParallelFor over two or more
// indices; a ParallelFor called under it runs inline.
thread_local bool t_in_fanout = false;

}  // namespace

uint64_t ThreadPoolWorkersSpawned() {
  return g_workers_spawned.load(std::memory_order_relaxed);
}

int ResolveThreads(int requested) {
  if (requested >= 1) {
    return requested;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  // Lanes pull indices from a shared counter (dynamic load balancing; the
  // per-degree / per-pair sweep costs are far from uniform). Determinism
  // comes from callers writing per-index slots, not from scheduling.
  std::atomic<int> next{0};
  std::mutex err_mu;
  int first_error_index = n;
  std::exception_ptr first_error;
  auto lane = [&] {
    const bool outer = t_in_fanout;
    t_in_fanout = outer || n >= 2;
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
    t_in_fanout = outer;
  };

  const int lanes = t_in_fanout ? 1 : std::min(ResolveThreads(threads), n);
  if (lanes == 1) {
    lane();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(lanes));
    try {
      for (int w = 0; w < lanes; ++w) {
        workers.emplace_back(lane);
        g_workers_spawned.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      // Starting a lane can throw std::system_error under resource
      // exhaustion; destroying a joinable std::thread would terminate.
      for (std::thread& worker : workers) {
        worker.join();
      }
      throw;
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace litegpu
