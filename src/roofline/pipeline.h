// Pipeline parallelism on top of tensor parallelism (TP x PP grids).
//
// The paper's case study is TP-only; its Figure-3b shows plain Lite
// collapsing at 405B because the weights force TP=32 and the collectives
// bill grows with the degree. Pipelining is the standard remedy: shard
// layers across `pp` stages of `tp` GPUs each, shrinking both the per-GPU
// weights (enabling smaller TP) and the collective group size, at the cost
// of inter-stage activation transfers and pipeline latency. This module
// models the decode phase and lets the search compare TP vs TP x PP
// (ablation bench_ablation_parallelism).

#pragma once

#include "src/hw/gpu_spec.h"
#include "src/llm/footprint.h"
#include "src/llm/model.h"
#include "src/llm/parallel.h"
#include "src/roofline/engine.h"
#include "src/roofline/inference.h"

namespace litegpu {

struct PipelinePlan {
  TpPlan tp;           // sharding within each stage
  int pp_degree = 1;   // number of pipeline stages
  int TotalGpus() const { return tp.degree * pp_degree; }
};

// Builds a plan; nullopt when tp is infeasible for the model or pp does not
// divide usefully (pp must be <= num_layers).
std::optional<PipelinePlan> MakePipelinePlan(const TransformerSpec& model, int tp_degree,
                                             int pp_degree,
                                             KvShardPolicy policy = KvShardPolicy::kReplicate);

// Per-GPU memory with layers sharded across stages (the first stage also
// holds the embedding; the last the LM head — we charge the max).
double PipelineWeightBytesPerGpu(const TransformerSpec& model, const PipelinePlan& plan);
double PipelineKvBytesPerTokenPerGpu(const TransformerSpec& model, const PipelinePlan& plan);

struct PipelineDecodeResult {
  bool feasible = false;
  bool meets_slo = false;
  // Steady-state continuous-batching pipeline: micro-batches round-robin
  // through the stages.
  double tbt_s = 0.0;         // per-sequence token interval (full traversal)
  double stage_step_s = 0.0;  // slowest stage's micro-step
  double transfer_s = 0.0;    // per-hop activation transfer
  double tokens_per_s = 0.0;
  double tokens_per_s_per_sm = 0.0;
  double memory_needed_bytes = 0.0;
};

// Decode with `batch` sequences split into pp micro-batches.
PipelineDecodeResult EvaluatePipelineDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                            const PipelinePlan& plan, int batch,
                                            const WorkloadParams& workload,
                                            const EngineParams& engine);

// Best (tp, pp, batch) decode configuration with tp*pp <= gpu.max_gpus,
// maximizing tokens/s/SM under the SLOs; pure TP is the pp=1 row.
struct PipelineSearchResult {
  bool found = false;
  PipelinePlan plan;
  int batch = 0;
  PipelineDecodeResult result;
};

PipelineSearchResult SearchPipelineDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                          const WorkloadParams& workload,
                                          const EngineParams& engine,
                                          KvShardPolicy policy = KvShardPolicy::kReplicate,
                                          int max_batch = 65536);

}  // namespace litegpu
