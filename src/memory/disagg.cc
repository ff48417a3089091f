#include "src/memory/disagg.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace litegpu {

namespace {

double UsableHbm(const GpuSpec& gpu) {
  return gpu.mem_capacity_bytes * FootprintParams{}.usable_fraction;
}

}  // namespace

DisaggDecodeResult EvaluateDisaggDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                        const TpPlan& plan, int batch,
                                        const MemoryPoolSpec& pool,
                                        const DisaggPlacement& placement,
                                        const WorkloadParams& workload,
                                        const EngineParams& engine) {
  DisaggDecodeResult result;
  if (batch <= 0) {
    return result;
  }
  double f = std::clamp(placement.local_fraction, 0.0, 1.0);
  int max_context = workload.prompt_tokens + workload.output_tokens;
  double kv_per_seq =
      static_cast<double>(max_context) * KvBytesPerTokenPerGpu(model, plan);
  double weights = WeightBytesPerGpu(model, plan);
  double acts = ActWorkspaceBytesPerGpu(model, plan, batch, 1);

  result.local_bytes_per_gpu = weights + acts + f * batch * kv_per_seq;
  result.remote_bytes_per_gpu = (1.0 - f) * batch * kv_per_seq;
  if (workload.enforce_memory_capacity) {
    if (result.local_bytes_per_gpu > UsableHbm(gpu) ||
        result.remote_bytes_per_gpu > pool.capacity_per_gpu_bytes) {
      return result;
    }
  }
  result.feasible = true;

  // Local portion of the step: the attention stage streams only the local
  // slice of the cache from HBM.
  PassShape shape;
  shape.batch = batch;
  shape.new_tokens = 1;
  shape.context_tokens = max_context - 1;
  ModelWork work = BuildModelWork(model, plan, Phase::kDecode, shape);
  for (auto& stage : work.layer_stages) {
    if (stage.name == "attention") {
      stage.kv_bytes *= f;
    }
  }
  PassTiming pass = EvaluatePass(work, gpu, plan.degree, engine);
  result.local_memory_s = pass.memory_s;
  result.network_s = pass.network_s;

  // Remote portion: the whole remote slice is read once per step; each
  // layer pays one access latency (requests are pipelined within a layer).
  result.remote_memory_s = pool.bw_bytes_per_s > 0.0
                               ? result.remote_bytes_per_gpu / pool.bw_bytes_per_s +
                                     model.num_layers * pool.latency_s
                               : 0.0;
  if (f >= 1.0) {
    result.remote_memory_s = 0.0;
  }

  if (engine.overlap == OverlapScope::kNone || pool.shares_nic) {
    // Sharing the NIC serializes pool traffic behind the collectives (and
    // with no overlap everything serializes anyway).
    result.tbt_s = pass.total_s + result.remote_memory_s;
  } else {
    // Dedicated port: the predictable remote stream prefetches behind the
    // local work (paper: "extra latency can be masked through pre-fetching").
    result.tbt_s = std::max(pass.total_s, result.remote_memory_s);
  }

  result.meets_slo = result.tbt_s <= workload.tbt_slo_s;
  if (result.tbt_s > 0.0) {
    result.tokens_per_s = static_cast<double>(batch) / result.tbt_s;
    result.tokens_per_s_per_sm =
        result.tokens_per_s / (static_cast<double>(plan.degree) * gpu.sm_count);
  }
  return result;
}

int MaxBatchWithPool(const TransformerSpec& model, const TpPlan& plan, const GpuSpec& gpu,
                     const MemoryPoolSpec& pool, const DisaggPlacement& placement,
                     int max_context) {
  double f = std::clamp(placement.local_fraction, 0.0, 1.0);
  double kv_per_seq =
      static_cast<double>(max_context) * KvBytesPerTokenPerGpu(model, plan);
  double weights = WeightBytesPerGpu(model, plan);
  double acts = ActWorkspaceBytesPerGpu(model, plan, 1, 1);
  double local_budget = UsableHbm(gpu) - weights - acts;
  if (local_budget < 0.0 || kv_per_seq <= 0.0) {
    return 0;
  }
  double by_local = f > 0.0 ? local_budget / (f * kv_per_seq)
                            : std::numeric_limits<double>::max();
  double by_remote = f < 1.0 ? pool.capacity_per_gpu_bytes / ((1.0 - f) * kv_per_seq)
                             : std::numeric_limits<double>::max();
  double max_batch = std::min(by_local, by_remote);
  if (max_batch >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return std::max(0, static_cast<int>(std::floor(max_batch)));
}

}  // namespace litegpu
