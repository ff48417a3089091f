#include "src/util/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <utility>

namespace litegpu {

namespace {

std::atomic<uint64_t> g_workers_spawned{0};

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

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::queue<std::packaged_task<void()>> tasks;
  bool stop = false;
};

// Signals stop and joins whatever workers exist. Shared by the destructor
// and the constructor's failure path (spawning can throw std::system_error
// under resource exhaustion; destroying a joinable std::thread would call
// std::terminate).
void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl) {
  int n = ResolveThreads(num_threads);
  try {
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
      g_workers_spawned.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    Shutdown();
    delete impl_;
    throw;
  }
}

ThreadPool::~ThreadPool() {
  Shutdown();
  delete impl_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait(lock, [this] { return impl_->stop || !impl_->tasks.empty(); });
      if (impl_->tasks.empty()) {
        return;  // stop requested and queue drained
      }
      task = std::move(impl_->tasks.front());
      impl_->tasks.pop();
    }
    task();  // exceptions land in the task's future
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->tasks.push(std::move(task));
  }
  impl_->cv.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  // Workers pull indices from a shared counter (dynamic load balancing; the
  // per-degree / per-pair sweep costs are far from uniform). Determinism
  // comes from callers writing per-index slots, not from scheduling.
  std::atomic<int> next{0};
  std::mutex err_mu;
  int first_error_index = n;
  std::exception_ptr first_error;

  auto runner = [&] {
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
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
  };

  // One runner per worker (never more runners than indices); the calling
  // thread only waits, so ThreadPool(N) means exactly N compute lanes.
  int fanout = static_cast<int>(workers_.size());
  if (fanout > n) {
    fanout = n;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(fanout));
  for (int w = 0; w < fanout; ++w) {
    futures.push_back(Submit(runner));
  }
  for (auto& future : futures) {
    future.get();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  int resolved = ResolveThreads(threads);
  if (resolved <= 1 || n == 1) {
    // Same semantics as the pooled path: every index runs even when one
    // throws, and the lowest-index exception is what propagates.
    std::exception_ptr first_error;
    for (int i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
    if (first_error) {
      std::rethrow_exception(first_error);
    }
    return;
  }
  // Never spawn more workers than there are indices: the pool is transient
  // and idle workers would only add spin-up/join overhead.
  ThreadPool pool(resolved < n ? resolved : n);
  pool.ParallelFor(n, fn);
}

}  // namespace litegpu
