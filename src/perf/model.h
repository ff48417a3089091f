// PerfModel: the one analytic cost interface every study consumes.
//
// A PerfModel binds one (TransformerSpec, GpuSpec, TpPlan, WorkloadParams,
// EngineParams) tuple and exposes the prefill and decode pass results the
// studies need behind an internal memoization cache. The same (phase, batch)
// evaluation is computed once per model instance, so the search's final
// re-evaluation of the chosen batch and the brute-force validators' repeated
// probes become cache hits. The serving simulator never queries a model directly: it reads
// a StepTimeTable (src/perf/step_table.h) tabulated from a model pair's bound
// parameters, which bypasses this cache (each batch is priced once, so every
// lookup would miss). Values are bit-identical to direct EvaluatePrefill /
// EvaluateDecode calls (tested in perf_model_test).

#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "src/hw/gpu_spec.h"
#include "src/llm/model.h"
#include "src/llm/parallel.h"
#include "src/roofline/inference.h"

namespace litegpu {

struct PerfCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  double HitRate() const {
    uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class PerfModel {
 public:
  // `plan` must be a valid plan for `model` (from MakeTpPlan).
  PerfModel(const TransformerSpec& model, const GpuSpec& gpu, const TpPlan& plan,
            const WorkloadParams& workload, const EngineParams& engine = EngineParams{});

  // Full roofline results at the bound workload's prompt/output lengths;
  // bit-identical to EvaluatePrefill/EvaluateDecode. Memoized.
  PrefillResult Prefill(int batch) const;
  DecodeResult Decode(int batch) const;

  const TransformerSpec& model() const { return model_; }
  const GpuSpec& gpu() const { return gpu_; }
  const TpPlan& plan() const { return plan_; }
  const WorkloadParams& workload() const { return workload_; }
  const EngineParams& engine() const { return engine_; }

 private:
  TransformerSpec model_;
  GpuSpec gpu_;
  TpPlan plan_;
  WorkloadParams workload_;
  EngineParams engine_;

  // A PerfModel may be queried from a parallel sweep (the search, the
  // brute-force validators), so the cache is guarded. The lock is
  // uncontended in the common one-model-per-worker layout and cheap next to
  // a roofline evaluation.
  mutable std::mutex mu_;
  mutable std::map<int, PrefillResult> prefill_cache_;
  mutable std::map<int, DecodeResult> decode_cache_;
};

// Process-wide cache counters aggregated over every PerfModel instance;
// lets benches and CI assert the hot loops actually hit the cache without
// threading a stats handle through the engines.
PerfCacheStats GlobalPerfCacheStats();
void ResetGlobalPerfCacheStats();

}  // namespace litegpu
