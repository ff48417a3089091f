#include "src/roofline/pipeline.h"

#include <algorithm>
#include <cmath>

namespace litegpu {

namespace {

int LayersPerStage(const TransformerSpec& model, int pp) {
  return (model.num_layers + pp - 1) / pp;
}

// Activation bytes handed between consecutive stages for a micro-batch of
// `tokens` total tokens (batch * new-tokens).
double StageTransferSeconds(const TransformerSpec& model, const GpuSpec& gpu, double tokens,
                            const EngineParams& engine) {
  if (gpu.net_bw_bytes_per_s <= 0.0) {
    return 0.0;
  }
  double bytes = tokens * model.d_model * model.bytes_per_act;
  return bytes / gpu.net_bw_bytes_per_s + engine.network_latency_s;
}

// Per-stage work for the worst stage: its share of layers plus the LM head
// (the last stage carries it; embeddings are lookup-dominated and cheap).
ModelWork BuildStageWork(const TransformerSpec& model, const PipelinePlan& plan, Phase phase,
                         const PassShape& shape) {
  ModelWork work = BuildModelWork(model, plan.tp, phase, shape);
  work.num_layers = LayersPerStage(model, plan.pp_degree);
  work.embedding = StageWork{};  // this stage does not run the embedding
  work.embedding.name = "embedding";
  return work;
}

}  // namespace

std::optional<PipelinePlan> MakePipelinePlan(const TransformerSpec& model, int tp_degree,
                                             int pp_degree, KvShardPolicy policy) {
  if (pp_degree < 1 || pp_degree > model.num_layers) {
    return std::nullopt;
  }
  auto tp = MakeTpPlan(model, tp_degree, policy);
  if (!tp) {
    return std::nullopt;
  }
  PipelinePlan plan;
  plan.tp = *tp;
  plan.pp_degree = pp_degree;
  return plan;
}

double PipelineWeightBytesPerGpu(const TransformerSpec& model, const PipelinePlan& plan) {
  double per_layer = PerLayerWeightBytesPerGpu(model, plan.tp);
  double embed = EmbeddingWeightBytesPerGpu(model, plan.tp);
  // First stage holds the embedding, last the LM head; worst case one of
  // each (they are the same size here).
  return LayersPerStage(model, plan.pp_degree) * per_layer + embed;
}

double PipelineKvBytesPerTokenPerGpu(const TransformerSpec& model, const PipelinePlan& plan) {
  double full = KvBytesPerTokenPerGpu(model, plan.tp);
  return full * LayersPerStage(model, plan.pp_degree) /
         static_cast<double>(model.num_layers);
}

PipelineDecodeResult EvaluatePipelineDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                            const PipelinePlan& plan, int batch,
                                            const WorkloadParams& workload,
                                            const EngineParams& engine) {
  PipelineDecodeResult result;
  if (batch <= 0) {
    return result;
  }
  int pp = plan.pp_degree;
  int micro_batch = (batch + pp - 1) / pp;
  int max_context = workload.prompt_tokens + workload.output_tokens;

  // Memory: this stage's layers hold KV for ALL batch sequences.
  result.memory_needed_bytes =
      PipelineWeightBytesPerGpu(model, plan) +
      static_cast<double>(batch) * max_context * PipelineKvBytesPerTokenPerGpu(model, plan) +
      ActWorkspaceBytesPerGpu(model, plan.tp, micro_batch, 1);
  if (workload.enforce_memory_capacity &&
      result.memory_needed_bytes > gpu.mem_capacity_bytes * FootprintParams{}.usable_fraction) {
    return result;
  }
  result.feasible = true;

  PassShape shape;
  shape.batch = micro_batch;
  shape.new_tokens = 1;
  shape.context_tokens = max_context - 1;
  ModelWork stage = BuildStageWork(model, plan, Phase::kDecode, shape);
  result.stage_step_s = EvaluatePass(stage, gpu, plan.tp.degree, engine).total_s;
  result.transfer_s = pp > 1 ? StageTransferSeconds(model, gpu, micro_batch, engine) : 0.0;

  // Steady state: pp micro-batches in flight; every sequence emits one
  // token per full rotation. Transfers overlap with the next micro-batch's
  // compute unless overlap is disabled.
  double per_hop = engine.overlap == OverlapScope::kNone
                       ? result.stage_step_s + result.transfer_s
                       : std::max(result.stage_step_s, result.transfer_s);
  result.tbt_s = pp * per_hop;
  result.meets_slo = result.tbt_s <= workload.tbt_slo_s;
  if (result.tbt_s > 0.0) {
    result.tokens_per_s = static_cast<double>(batch) / result.tbt_s;
    result.tokens_per_s_per_sm =
        result.tokens_per_s / (static_cast<double>(plan.TotalGpus()) * gpu.sm_count);
  }
  return result;
}

PipelineSearchResult SearchPipelineDecode(const TransformerSpec& model, const GpuSpec& gpu,
                                          const WorkloadParams& workload,
                                          const EngineParams& engine, KvShardPolicy policy,
                                          int max_batch) {
  PipelineSearchResult out;
  for (int tp_degree : FeasibleTpDegrees(model, gpu.max_gpus, policy)) {
    for (int pp = 1; pp <= gpu.max_gpus / tp_degree && pp <= model.num_layers; ++pp) {
      auto plan = MakePipelinePlan(model, tp_degree, pp, policy);
      if (!plan) {
        continue;
      }
      auto meets = [&](int batch) {
        PipelineDecodeResult r =
            EvaluatePipelineDecode(model, gpu, *plan, batch, workload, engine);
        return r.feasible && r.meets_slo;
      };
      if (!meets(1)) {
        continue;
      }
      int lo = 1;
      int hi = 1;
      while (hi < max_batch && meets(std::min(hi * 2, max_batch))) {
        hi = std::min(hi * 2, max_batch);
        lo = hi;
        if (hi == max_batch) {
          break;
        }
      }
      hi = std::min(hi * 2, max_batch);
      while (lo < hi) {
        int mid = lo + (hi - lo + 1) / 2;
        if (meets(mid)) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      PipelineDecodeResult best =
          EvaluatePipelineDecode(model, gpu, *plan, lo, workload, engine);
      if (!out.found || best.tokens_per_s_per_sm > out.result.tokens_per_s_per_sm) {
        out.found = true;
        out.plan = *plan;
        out.batch = lo;
        out.result = best;
      }
    }
  }
  return out;
}

}  // namespace litegpu
