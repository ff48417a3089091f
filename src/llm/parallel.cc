#include "src/llm/parallel.h"

#include <cstdio>

namespace litegpu {

std::string ToString(KvShardPolicy policy) {
  return policy == KvShardPolicy::kReplicate ? "replicate" : "ideal-shard";
}

std::string TpPlan::ToString() const {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "tp%d (q=%.2f kv=%.2f rep=%d %s)", degree,
                q_heads_per_gpu, kv_heads_per_gpu, kv_replication,
                policy == KvShardPolicy::kReplicate ? "replicate" : "ideal-shard");
  return buffer;
}

std::optional<TpPlan> MakeTpPlan(const TransformerSpec& model, int degree,
                                 KvShardPolicy policy) {
  if (degree <= 0 || model.num_heads % degree != 0) {
    return std::nullopt;
  }
  TpPlan plan;
  plan.degree = degree;
  plan.policy = policy;
  plan.q_heads_per_gpu = static_cast<double>(model.num_heads) / degree;
  if (degree <= model.num_kv_heads) {
    // KV heads shard evenly only if the degree divides them; with degree
    // dividing num_heads and num_kv_heads dividing num_heads this holds for
    // all power-of-two-style head counts used here, but guard anyway.
    if (model.num_kv_heads % degree != 0) {
      return std::nullopt;
    }
    plan.kv_heads_per_gpu = static_cast<double>(model.num_kv_heads) / degree;
    plan.kv_replication = 1;
  } else if (policy == KvShardPolicy::kReplicate) {
    // More shards than KV heads: each GPU keeps one whole head; groups of
    // degree/num_kv_heads GPUs share (replicate) a head.
    if (degree % model.num_kv_heads != 0) {
      return std::nullopt;
    }
    plan.kv_heads_per_gpu = 1.0;
    plan.kv_replication = degree / model.num_kv_heads;
  } else {
    plan.kv_heads_per_gpu = static_cast<double>(model.num_kv_heads) / degree;
    plan.kv_replication = 1;
  }
  return plan;
}

std::vector<int> FeasibleTpDegrees(const TransformerSpec& model, int max_gpus,
                                   KvShardPolicy policy) {
  std::vector<int> degrees;
  for (int t = 1; t <= max_gpus; ++t) {
    if (MakeTpPlan(model, t, policy).has_value()) {
      degrees.push_back(t);
    }
  }
  return degrees;
}

}  // namespace litegpu
