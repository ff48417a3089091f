// Roofline evaluation engine (Williams et al. [57], as used by the paper):
// each stage's time is the max of its compute, HBM, and network components
// ("Compute, memory I/O, and network I/O can overlap within each stage"),
// plus a small non-overlappable launch overhead.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/collectives/cost.h"
#include "src/hw/gpu_spec.h"
#include "src/llm/stages.h"

namespace litegpu {

enum class Bound { kCompute, kMemory, kNetwork, kOverhead };

std::string ToString(Bound bound);

// How aggressively compute, memory I/O, and network I/O hide behind each
// other (paper: "Compute, memory I/O, and network I/O can overlap within
// each stage"; production engines additionally overlap a stage's collective
// with the next stage's GEMMs, which kLayer models).
enum class OverlapScope {
  kNone,   // fully serialized: stage time = c + m + n (ablation A2)
  kStage,  // stage time = max(c, m, n)
  kLayer,  // layer time = max(sum c, sum m, sum n) across the layer's stages
};

std::string ToString(OverlapScope scope);

struct EngineParams {
  // Fraction of peak FLOPS realizable by fused kernels (MFU-style); 1.0
  // reproduces the paper's idealized peaks.
  double compute_efficiency = 1.0;
  // Fraction of peak HBM bandwidth realizable by streaming kernels.
  double memory_efficiency = 1.0;
  // Per-stage launch/serialization overhead that cannot overlap.
  double stage_overhead_s = 2e-6;
  // Collective algorithm for tensor-parallel all-reduces.
  CollectiveAlgo collective_algo = CollectiveAlgo::kAuto;
  // Per-step network latency (alpha) for the GPU-to-GPU fabric.
  double network_latency_s = 1.5e-6;
  // Default kStage is the paper's stated assumption; kLayer additionally
  // hides collectives behind adjacent stages (ablation A2 quantifies both).
  OverlapScope overlap = OverlapScope::kStage;
};

struct StageTiming {
  std::string_view name;  // the timed StageWork's name (a literal; see stages.h)
  double compute_s = 0.0;
  double memory_s = 0.0;
  double network_s = 0.0;
  double overhead_s = 0.0;
  double total_s = 0.0;
  Bound bound = Bound::kCompute;
};

struct PassTiming {
  // Timing of ONE instance of each per-layer stage.
  std::vector<StageTiming> layer_stages;
  int num_layers = 0;
  StageTiming embedding;
  StageTiming lm_head;

  // Whole forward pass: num_layers * sum(layer stages) + embedding + head.
  double total_s = 0.0;
  // Resource aggregates over the whole pass (useful for bound analysis).
  double compute_s = 0.0;
  double memory_s = 0.0;
  double network_s = 0.0;
  double overhead_s = 0.0;

  Bound DominantBound() const;
};

// Times one stage's work on one GPU of `gpu`, with collectives across
// `tp_degree` peers.
StageTiming EvaluateStage(const StageWork& work, const GpuSpec& gpu, int tp_degree,
                          const EngineParams& params);

// Times a whole forward pass.
PassTiming EvaluatePass(const ModelWork& work, const GpuSpec& gpu, int tp_degree,
                        const EngineParams& params);

}  // namespace litegpu
