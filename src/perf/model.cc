#include "src/perf/model.h"

#include <atomic>

namespace litegpu {

namespace {

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};

}  // namespace

PerfCacheStats GlobalPerfCacheStats() {
  PerfCacheStats stats;
  stats.hits = g_hits.load(std::memory_order_relaxed);
  stats.misses = g_misses.load(std::memory_order_relaxed);
  return stats;
}

void ResetGlobalPerfCacheStats() {
  g_hits.store(0, std::memory_order_relaxed);
  g_misses.store(0, std::memory_order_relaxed);
}

PerfModel::PerfModel(const TransformerSpec& model, const GpuSpec& gpu, const TpPlan& plan,
                     const WorkloadParams& workload, const EngineParams& engine)
    : model_(model), gpu_(gpu), plan_(plan), workload_(workload), engine_(engine) {}

PrefillResult PerfModel::Prefill(int batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prefill_cache_.find(batch);
  if (it != prefill_cache_.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  PrefillResult result = EvaluatePrefill(model_, gpu_, plan_, batch, workload_, engine_);
  prefill_cache_.emplace(batch, result);
  return result;
}

DecodeResult PerfModel::Decode(int batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = decode_cache_.find(batch);
  if (it != decode_cache_.end()) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  DecodeResult result = EvaluateDecode(model_, gpu_, plan_, batch, workload_, engine_);
  decode_cache_.emplace(batch, result);
  return result;
}

}  // namespace litegpu
