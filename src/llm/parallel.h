// Tensor-parallel execution plans (Megatron-style head sharding).
//
// When the TP degree exceeds the KV-head count (possible for Llama3 GQA on
// large Lite clusters), KV heads must either be replicated across GPUs
// (standard Megatron behaviour; aggregate KV traffic and footprint stop
// shrinking) or the deployment must fall back to sharding along another
// dimension. Both policies are modeled; replication is the default.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/llm/model.h"

namespace litegpu {

enum class KvShardPolicy {
  // KV heads replicated when degree > num_kv_heads (Megatron default).
  kReplicate,
  // Idealized: KV cache shards perfectly at any degree (e.g. sequence-
  // parallel attention); footprint and traffic keep scaling 1/t.
  kIdealShard,
};

// "replicate" / "ideal-shard" (the spellings scenario files use).
std::string ToString(KvShardPolicy policy);

struct TpPlan {
  int degree = 1;
  double q_heads_per_gpu = 0.0;
  // Effective KV heads stored/streamed per GPU (>= num_kv_heads/degree; the
  // floor of 1 full head under kReplicate encodes the replication).
  double kv_heads_per_gpu = 0.0;
  // How many GPUs hold a copy of each KV head (1 when degree <= kv heads).
  int kv_replication = 1;
  KvShardPolicy policy = KvShardPolicy::kReplicate;

  std::string ToString() const;
};

// Builds a plan for the given degree; nullopt when the degree does not divide
// the attention heads evenly (the sweep in the paper only uses even shards).
std::optional<TpPlan> MakeTpPlan(const TransformerSpec& model, int degree,
                                 KvShardPolicy policy = KvShardPolicy::kReplicate);

// All TP degrees usable for `model` with at most `max_gpus` GPUs: divisors of
// num_heads (and, under kReplicate with degree > kv heads, multiples of the
// KV-head count so each GPU holds whole heads).
std::vector<int> FeasibleTpDegrees(const TransformerSpec& model, int max_gpus,
                                   KvShardPolicy policy = KvShardPolicy::kReplicate);

}  // namespace litegpu
