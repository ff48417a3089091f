#include "src/llm/stages.h"

namespace litegpu {

double StageWork::OperationalIntensity() const {
  double bytes = HbmBytes();
  return bytes > 0.0 ? flops / bytes : 0.0;
}

std::vector<StageWork> LayerStages(const TransformerSpec& model, const TpPlan& plan,
                                   Phase phase, const PassShape& shape) {
  (void)phase;  // the shape fully determines the work; phase kept for clarity
  double b = shape.batch;
  double s = shape.new_tokens;
  double ctx = shape.context_tokens;
  double h = model.d_model;
  double dh = model.d_head;
  double q = plan.q_heads_per_gpu;
  double kv = plan.kv_heads_per_gpu;
  double ff = static_cast<double>(model.d_ff) / plan.degree;
  double mats = model.ffn_matrices;
  double wb = model.bytes_per_weight;
  double ab = model.bytes_per_act;
  double kb = model.bytes_per_kv;

  std::vector<StageWork> stages;
  stages.reserve(4);

  // --- fused QKV projection (column-parallel) ---
  {
    StageWork w;
    w.name = "qkv_proj";
    double out_dims = dh * (q + 2.0 * kv);
    w.flops = 2.0 * b * s * h * out_dims;
    w.weight_bytes = h * out_dims * wb;
    w.act_bytes = b * s * (h + out_dims) * ab;
    // Newly produced K/V are appended to the cache.
    w.kv_bytes = b * s * kv * dh * 2.0 * kb;
    stages.push_back(w);
  }

  // --- fused FlashAttention ---
  {
    StageWork w;
    w.name = "attention";
    // Each of the s new tokens attends to ctx prior positions plus (causally)
    // an average of (s+1)/2 positions within the new chunk.
    double attended = ctx + (s + 1.0) / 2.0;
    // QK^T and AV: two matmuls, 2 FLOPs per MAC each.
    w.flops = 4.0 * b * s * q * attended * dh;
    // IO-aware kernel: Q read and O written once; K/V streamed from the
    // cache once per pass.
    w.act_bytes = 2.0 * b * s * q * dh * ab;
    w.kv_bytes = b * (ctx + s) * kv * dh * 2.0 * kb;
    stages.push_back(w);
  }

  // --- attention output projection (row-parallel; all-reduce follows) ---
  {
    StageWork w;
    w.name = "out_proj";
    double in_dim = q * dh;  // h / degree
    w.flops = 2.0 * b * s * in_dim * h;
    w.weight_bytes = in_dim * h * wb;
    w.act_bytes = b * s * (in_dim + h) * ab;
    w.allreduce_bytes = b * s * h * ab;
    stages.push_back(w);
  }

  // --- MLP (column- then row-parallel; all-reduce follows) ---
  {
    StageWork w;
    w.name = "mlp";
    w.flops = 2.0 * b * s * h * ff * mats;
    w.weight_bytes = mats * h * ff * wb;
    // Input read, (mats-1) intermediate tensors written+read, output written.
    w.act_bytes = b * s * (2.0 * h + 2.0 * (mats - 1.0) * ff) * ab;
    w.allreduce_bytes = b * s * h * ab;
    stages.push_back(w);
  }

  return stages;
}

double ModelWork::TotalFlops() const {
  double total = embedding.flops + lm_head.flops;
  for (const auto& s : layer_stages) {
    total += s.flops * num_layers;
  }
  return total;
}

ModelWork BuildModelWork(const TransformerSpec& model, const TpPlan& plan, Phase phase,
                         const PassShape& shape) {
  ModelWork work;
  work.layer_stages = LayerStages(model, plan, phase, shape);
  work.num_layers = model.num_layers;

  double b = shape.batch;
  double s = shape.new_tokens;
  double h = model.d_model;
  double v = model.vocab_size;
  double t = plan.degree;
  double wb = model.bytes_per_weight;
  double ab = model.bytes_per_act;

  // Embedding lookup: gather b*s rows of the (vocab-sharded) table.
  work.embedding.name = "embedding";
  work.embedding.weight_bytes = b * s * h * wb / t;
  work.embedding.act_bytes = b * s * h * ab;

  // LM head: logits only for the last position of each sequence (prefill
  // emits the first token; decode emits one token per step).
  work.lm_head.name = "lm_head";
  work.lm_head.flops = 2.0 * b * h * v / t;
  work.lm_head.weight_bytes = h * v * wb / t;
  work.lm_head.act_bytes = b * (h + v / t) * ab;

  return work;
}

}  // namespace litegpu
